// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer's public function: its name, start
// and end (steady_clock nanoseconds since the tracer was created), the span
// that was open when it began, and the index of the execution it belongs to.
// Spans are appended to a vector and only summarised or written out after
// the traced campaign ends, so recording costs two clock reads and one
// push_back.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layer boundaries the traced replicas time. The names are the metric
/// prefixes the benchmark reports (`<name>.p50_us`, ...).
enum class SpanName : uint8_t {
  kLegoNext,           // Fuzzer::Next
  kLegoOnResult,       // Fuzzer::OnResult
  kBackendReset,       // DbBackend::Reset
  kBackendExecute,     // DbBackend::Execute, one statement
  kBackendFinish,      // DbBackend::FinishRun
  kCoverageMerge,      // GlobalCoverage::MergeDetectNew
  kSqlPrint,           // TestCase::ToSql
  kRulesCollect,       // cov::CollectRules
  kOracleCheck,        // LogicOracle::Check inside an OracleSession
  kSessionsSplit,      // SplitForSessions
  kSessionsRunCase,    // ConcurrentBackend::RunCase
  kOracleHistory,      // LogicOracle::CheckHistory
  kFleetShard,         // ExecuteShard
  kFleetDistill,       // UpdatePool on a distill cycle
  kFleetPoolEncode,    // EncodePool
  kFleetPoolDecode,    // DecodePool
  kFleetOutcomeEncode, // EncodeShardOutcome
  kFleetOutcomeDecode, // ProbeEnvelope + DecodeShardOutcome
  kCount,
};

constexpr int kNumSpanNames = static_cast<int>(SpanName::kCount);

const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span vector, -1 at top level
  int32_t exec = -1;    // execution index within the campaign, -1 outside
  SpanName name = SpanName::kCount;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int32_t Begin(SpanName name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.exec = exec_;
    span.start_ns = Now();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = Now();
    open_.pop_back();
  }

  /// Forgets the most recently recorded span, which must be closed: a call
  /// whose layer is only known once it returns (an UpdatePool that did not
  /// distill) is timed and then dropped.
  void DropLast() { spans_.pop_back(); }

  void set_exec(int32_t exec) { exec_ = exec; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one tab-separated line:
  /// name, start_ns, end_ns, parent, exec.
  bool WriteTsv(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int32_t exec_ = -1;
};

/// Times the enclosing scope as one span; does nothing without a tracer.
class Scoped {
 public:
  Scoped(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }

  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Durations and self time of every span of one name, pooled over one or
/// more traced campaigns.
struct SpanSamples {
  std::vector<double> durations_ns;
  double self_ns = 0.0;
};

/// Adds `spans` to `per_name` (indexed by SpanName). A span's self time is
/// its duration minus the time its direct children cover.
void Accumulate(const std::vector<Span>& spans,
                std::vector<SpanSamples>* per_name);

struct SpanStats {
  size_t n = 0;
  double p50_us = 0.0;
  double tail_us = 0.0;
  /// Percentile reported as the tail: the highest of 50, 90, 99, 99.9 and
  /// 99.99 that leaves at least 10 samples above it. Below 20 samples none
  /// does, and the median stands in for the tail (tail_pct stays 50).
  double tail_pct = 50.0;
  double self_ns = 0.0;
  double total_ns = 0.0;
};

SpanStats Summarise(SpanSamples samples);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
