#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kLegoNext: return "lego.next";
    case SpanName::kLegoOnResult: return "lego.on_result";
    case SpanName::kBackendReset: return "backend.reset";
    case SpanName::kBackendExecute: return "backend.execute";
    case SpanName::kBackendFinish: return "backend.finish";
    case SpanName::kCoverageMerge: return "coverage.merge";
    case SpanName::kSqlPrint: return "sql.print";
    case SpanName::kRulesCollect: return "rules.collect";
    case SpanName::kOracleCheck: return "oracle.check";
    case SpanName::kSessionsSplit: return "sessions.split";
    case SpanName::kSessionsRunCase: return "sessions.run_case";
    case SpanName::kOracleHistory: return "oracle.history";
    case SpanName::kFleetShard: return "fleet.shard";
    case SpanName::kFleetDistill: return "fleet.distill";
    case SpanName::kFleetPoolEncode: return "fleet.pool_encode";
    case SpanName::kFleetPoolDecode: return "fleet.pool_decode";
    case SpanName::kFleetOutcomeEncode: return "fleet.outcome_encode";
    case SpanName::kFleetOutcomeDecode: return "fleet.outcome_decode";
    case SpanName::kCount: break;
  }
  return "?";
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\texec\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%d\n", SpanNameString(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.exec);
  }
  return std::fclose(f) == 0;
}

void Accumulate(const std::vector<Span>& spans,
                std::vector<SpanSamples>* per_name) {
  per_name->resize(kNumSpanNames);
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    SpanSamples& out = (*per_name)[static_cast<size_t>(s.name)];
    out.durations_ns.push_back(duration);
    out.self_ns += duration - static_cast<double>(child_ns[i]);
  }
}

namespace {

/// Nearest-rank percentile of sorted `v`.
double Percentile(const std::vector<double>& v, double pct) {
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

}  // namespace

SpanStats Summarise(SpanSamples samples) {
  SpanStats stats;
  std::vector<double>& v = samples.durations_ns;
  stats.n = v.size();
  stats.self_ns = samples.self_ns;
  if (v.empty()) return stats;
  std::sort(v.begin(), v.end());
  for (double d : v) stats.total_ns += d;
  stats.p50_us = Percentile(v, 50.0) / 1e3;
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(v.size()) * (1.0 - pct / 100.0) >= 10.0) {
      stats.tail_pct = pct;
    }
  }
  stats.tail_us = Percentile(v, stats.tail_pct) / 1e3;
  return stats;
}

}  // namespace perfbench
