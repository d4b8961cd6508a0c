#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the end-to-end benchmark: the workload table, sample
// statistics, the failure ledger, the in-memory span log of the traced
// pass, the metric sink, and the churn generator that feeds the stream and
// serve phases.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/dbscan_types.h"
#include "geom/dataset.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Every timed call runs at this many threads; the process starts at most
// this many threads (kThreads - 1 pool workers plus the serve drainer).
// Two of a 4-core box's cores: on ss3d-batch approx is no faster at 4
// threads than at 2, and two busy threads beside the run slow 4-thread
// calls by about a third while 2-thread calls keep their speed.
inline constexpr int kThreads = 2;
// Independent set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;
// Serve phase: tenant sessions and the drainer's wake threshold.
inline constexpr int kSessions = 4;
inline constexpr size_t kDrainBatchOps = 2048;

struct Workload {
  const char* name;
  int dim;
  double eps;
  int min_pts;
  double rho;
  size_t batch_n;    // points of the batch-call dataset
  size_t stream_n;   // live points of the stream clusterer
  size_t session_n;  // live points of each serve session
  size_t serve_req_ops;  // updates per serve request (both passes)
  double open_rate;      // open-loop serve requests per second
  // Shares of --seconds for the batch and stream phases; the serve phase
  // gets the rest, a third for the capacity pass and two thirds for the
  // open-loop pass.
  double batch_share;
  double stream_share;
};

const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& AllWorkloads();

double MsSince(Clock::time_point t0);
// CPU time of the whole process (every thread), ms. Time the host gives to
// other tenants is not counted (steal time is excluded on a paravirtualised
// guest), so a call's CPU time is steadier on a shared host than its wall
// time; the pool's idle workers block, so they add nothing.
double CpuMsNow();

// A set of measurements of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Median() const;
  double Mean() const;
  // The highest order statistic with at least ten samples above it (the
  // median when there are fewer than eleven samples); *percentile receives
  // the share of samples at or below it, in percent.
  double Tail(double* percentile) const;

 private:
  std::vector<double> values_;
};

// Counts every timed call, output check and serve request; a failure is
// reported on stderr and fails the run.
class Ledger {
 public:
  void Op(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Spans of the traced pass, kept in memory and written as Chrome
// trace-event JSON at the end. A span records its parent (the innermost
// open span) and the request it belongs to (workload/rep/call).
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::string request;
    int64_t parent;  // index of the parent span, -1 for a root
    double start_us;
    double end_us;
    double dur_ms() const { return (end_us - start_us) / 1000.0; }
  };

  class Scope {
   public:
    Scope(SpanLog* log, const char* name, const std::string& request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int64_t index_ = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  // Durations (ms) of every span with this name.
  Samples Durations(const std::string& name) const;
  // Sum over spans named `parent` of their self time (duration minus the
  // time their child spans cover), as a share of their summed duration.
  double SelfShare(const std::string& parent) const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// Metrics of one run, printed as a table and as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Median of `samples` with the sample count in the table's note column.
  void SetMedian(const std::string& name, const Samples& samples,
                 const std::string& unit);
  // Tail of `samples`, noting its percentile and sample count.
  void SetTail(const std::string& name, const Samples& samples,
               const std::string& unit);
  void Note(const std::string& name, const std::string& note);
  void PrintTable(FILE* out) const;
  std::string MetricsJson() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

// Stationary churn over a fixed coordinate pool: a live set of ids plus a
// FIFO of pool rows not currently live. Each update batch removes random
// live ids and re-inserts as many pool rows from the front of the FIFO, so
// the live population keeps its size and spatial distribution however long
// the run lasts.
class Churn {
 public:
  // A random (pool.size() - live)-row subset of `pool` seeds the FIFO; the
  // other rows, in pool order, are the initial live set, which the consumer
  // bulk-loads as ids 0..live-1 (see Base).
  Churn(const adbscan::Dataset* pool, size_t live, uint64_t seed);

  // The initial live rows' coordinates, in id order.
  adbscan::Dataset Base() const;

  // Draws one batch of `ops` updates: ops/2 removes and ops - ops/2
  // inserts. The inserted rows' coordinates go to *coords (row-major).
  void Draw(size_t ops, std::vector<uint32_t>* removes,
            std::vector<double>* coords);
  // Records that the inserts of the last Draw received ids
  // first_id, first_id + 1, ...
  void Commit(uint32_t first_id);

  // The live ids ascending and their coordinates, in that order.
  adbscan::Dataset Survivors(std::vector<uint32_t>* ids) const;

 private:
  const adbscan::Dataset* pool_;
  adbscan::Rng rng_;
  std::vector<uint32_t> live_;         // live consumer ids
  std::vector<uint32_t> row_of_id_;    // consumer id -> pool row
  std::deque<uint32_t> free_rows_;     // pool rows not live
  std::vector<uint32_t> pending_rows_; // rows inserted by the last Draw
};

// n seed-spreader points from src/gen (the paper's section 5.1 generator
// with its default parameters), in generation order, from generator seed
// role + 1. The point sets do not depend on the run's seed: between
// generator seeds the cluster overlaps, and with them every path's time,
// change far more than any bound allows (see README.md).
adbscan::Dataset Generate(int dim, size_t n, uint64_t role);

// Bit-for-bit equality of two clusterings: labels, core flags, extra
// memberships and cluster count.
bool SameOutput(const adbscan::Clustering& a, const adbscan::Clustering& b);

// Peak resident set of this process, MiB.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
