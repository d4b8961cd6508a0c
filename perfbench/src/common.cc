#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "gen/seed_spreader.h"

namespace perfbench {

namespace {

// Sizes and the reason for each workload are recorded in BENCHMARK.json
// and perfbench/README.md; keep the three in step.
const std::vector<Workload> kWorkloads = {
    // Paper section 5.1 defaults. Few dense cells: grid build and core
    // labelling dominate the batch paths, the edge graph is small.
    {"ss3d-batch", 3, 5000.0, 100, 0.001, 1000000, 100000, 25000, 1024, 30.0,
     0.5, 0.2},
    // Large live sets under churn: the incremental stream and serve paths
    // against scratch batch runs of the same size.
    {"ss3d-churn", 3, 5000.0, 100, 0.001, 200000, 200000, 50000, 1024, 18.0,
     0.15, 0.35},
};

}  // namespace

const std::vector<Workload>& AllWorkloads() { return kWorkloads; }

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double CpuMsNow() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

double Samples::Median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::Tail(double* percentile) const {
  const size_t n = values_.size();
  if (n < 11) {
    *percentile = 50.0;
    return Median();
  }
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return v[n - 11];
}

void Ledger::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

SpanLog::Scope::Scope(SpanLog* log, const char* name,
                      const std::string& request)
    : log_(log) {
  if (!log_->enabled_) return;
  index_ = static_cast<int64_t>(log_->spans_.size());
  const int64_t parent = log_->open_.empty() ? -1 : log_->open_.back();
  log_->spans_.push_back(
      {name, request, parent,
       std::chrono::duration<double, std::micro>(Clock::now() - log_->epoch_)
           .count(),
       0.0});
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_->spans_[index_].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - log_->epoch_)
          .count();
  log_->open_.pop_back();
}

Samples SpanLog::Durations(const std::string& name) const {
  Samples s;
  for (const Span& span : spans_) {
    if (name == span.name) s.Add(span.dur_ms());
  }
  return s;
}

double SpanLog::SelfShare(const std::string& parent) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ms[span.parent] += span.dur_ms();
  }
  double total = 0.0, self = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (parent != spans_[i].name) continue;
    total += spans_[i].dur_ms();
    self += spans_[i].dur_ms() - child_ms[i];
  }
  return total > 0.0 ? self / total : 0.0;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"perfbench\"}}");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"cat\":\"perfbench\",\"name\":\"%s\","
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":\"%s\"}}",
                 s.start_us, s.end_us - s.start_us, s.name, i,
                 static_cast<long long>(s.parent), s.request.c_str());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (entries_.find(name) == entries_.end()) order_.push_back(name);
  entries_[name] = {value, unit, ""};
}

void Report::SetMedian(const std::string& name, const Samples& samples,
                       const std::string& unit) {
  Set(name, samples.Median(), unit);
  Note(name, "median of " + std::to_string(samples.size()));
}

void Report::SetTail(const std::string& name, const Samples& samples,
                     const std::string& unit) {
  double percentile = 0.0;
  Set(name, samples.Tail(&percentile), unit);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f of %zu", percentile,
                samples.size());
  Note(name, note);
}

void Report::Note(const std::string& name, const std::string& note) {
  entries_[name].note = note;
}

void Report::PrintTable(FILE* out) const {
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    std::fprintf(out, "  %-28s %16.6g %-6s %s\n", name.c_str(), e.value,
                 e.unit.c_str(), e.note.c_str());
  }
}

std::string Report::MetricsJson() const {
  std::string json = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const Entry& e = entries_.at(order_[i]);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    json += (i ? ", \"" : "\"") + order_[i] + "\": {\"value\": " + buf +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  return json + "}";
}

Churn::Churn(const adbscan::Dataset* pool, size_t live, uint64_t seed)
    : pool_(pool), rng_(seed) {
  std::vector<uint32_t> rows(pool->size());
  std::iota(rows.begin(), rows.end(), 0u);
  // Partial Fisher-Yates: the tail becomes a uniform random free set.
  for (size_t i = rows.size(); i > live; --i) {
    std::swap(rows[i - 1], rows[rng_.NextBounded(i)]);
  }
  free_rows_.assign(rows.begin() + live, rows.end());
  rows.resize(live);
  std::sort(rows.begin(), rows.end());
  row_of_id_ = rows;
  live_.resize(live);
  std::iota(live_.begin(), live_.end(), 0u);
}

adbscan::Dataset Churn::Base() const {
  adbscan::Dataset out(pool_->dim());
  out.Reserve(live_.size());
  for (uint32_t id = 0; id < live_.size(); ++id) {
    out.Add(pool_->point(row_of_id_[id]));
  }
  return out;
}

void Churn::Draw(size_t ops, std::vector<uint32_t>* removes,
                 std::vector<double>* coords) {
  removes->clear();
  coords->clear();
  pending_rows_.clear();
  const size_t n_remove = std::min(ops / 2, live_.size());
  for (size_t i = 0; i < n_remove; ++i) {
    const size_t pick = rng_.NextBounded(live_.size());
    removes->push_back(live_[pick]);
    free_rows_.push_back(row_of_id_[live_[pick]]);
    live_[pick] = live_.back();
    live_.pop_back();
  }
  const int dim = pool_->dim();
  for (size_t i = 0; i < ops - n_remove && !free_rows_.empty(); ++i) {
    const uint32_t row = free_rows_.front();
    free_rows_.pop_front();
    pending_rows_.push_back(row);
    const double* p = pool_->point(row);
    coords->insert(coords->end(), p, p + dim);
  }
}

void Churn::Commit(uint32_t first_id) {
  for (size_t i = 0; i < pending_rows_.size(); ++i) {
    const uint32_t id = first_id + static_cast<uint32_t>(i);
    if (row_of_id_.size() <= id) row_of_id_.resize(id + 1);
    row_of_id_[id] = pending_rows_[i];
    live_.push_back(id);
  }
  pending_rows_.clear();
}

adbscan::Dataset Churn::Survivors(std::vector<uint32_t>* ids) const {
  *ids = live_;
  std::sort(ids->begin(), ids->end());
  adbscan::Dataset out(pool_->dim());
  out.Reserve(ids->size());
  for (uint32_t id : *ids) out.Add(pool_->point(row_of_id_[id]));
  return out;
}

adbscan::Dataset Generate(int dim, size_t n, uint64_t role) {
  adbscan::SeedSpreaderParams sp;
  sp.dim = dim;
  sp.n = n;
  return adbscan::GenerateSeedSpreader(sp, role + 1);
}

bool SameOutput(const adbscan::Clustering& a, const adbscan::Clustering& b) {
  return a.num_clusters == b.num_clusters && a.label == b.label &&
         a.is_core == b.is_core && a.extra_memberships == b.extra_memberships;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
