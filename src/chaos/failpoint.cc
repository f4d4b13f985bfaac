#include "chaos/failpoint.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "util/hash.h"

namespace lego::chaos {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

/// SplitMix64 finalizer: a full-avalanche mix of the 64-bit input. Draw k
/// for a failpoint is SplitMix64(seed ^ k) — a pure function, so the fire
/// schedule depends only on (seed, hit ordinal), never on threads or pids.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct FailpointState {
  const char* name;
  std::atomic<int> mode{static_cast<int>(FailpointMode::kOff)};
  double probability = 0.0;  // kProbability parameter
  uint64_t n = 0;            // kNthHit / kKillNthHit parameter (1-based)
  uint64_t seed = 0;         // per-failpoint: HashMix(global seed, name hash)
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fires{0};
};

/// The registry is a fixed table: failpoint sites are compiled into the
/// binary, so the name set is closed. Linear scan is fine — Evaluate only
/// runs when something is armed, and the table is tiny.
FailpointState g_failpoints[] = {
    {"persist.open"},         // atomic state write: cannot open .tmp
    {"persist.write"},        // atomic state write: short write / flush fail
    {"persist.rename"},       // atomic state write: rename into place fails
    {"persist.read"},         // state file read fails
    {"corpus.save"},          // corpus export fails
    {"corpus.load"},          // corpus import fails
    {"minidb.insert_alloc"},  // row materialization allocation fails
    {"minidb.select_alloc"},  // result-set allocation fails
    {"backend.spawn"},        // fork-server pipe/fork setup fails
    {"env.write"},            // storage Env: page/log write fails (per chunk)
    {"env.sync"},             // storage Env: fsync fails
    {"wal.append"},           // WAL: record append into the log buffer fails
    {"pager.flush"},          // buffer pool: dirty-page write-back fails
    {"wal.recover"},          // WAL: record read during recovery fails
    {"fleet.heartbeat"},      // fleet worker: lease heartbeat send suppressed
    {"fleet.result_write"},   // fleet worker: shard result envelope corrupted
    {"fleet.result_hold"},    // fleet worker: wedges instead of reporting
    {"fleet.lease_grant"},    // fleet coordinator: lease grant deferred
    {"fleet.journal_write"},  // fleet coordinator: journal write fails
};

FailpointState* Find(std::string_view name) {
  for (FailpointState& fp : g_failpoints) {
    if (name == fp.name) return &fp;
  }
  return nullptr;
}

void Arm(FailpointState* fp, FailpointMode mode, double probability,
         uint64_t n, uint64_t global_seed) {
  fp->probability = probability;
  fp->n = n;
  fp->seed = HashMix(global_seed, Fnv1a64(fp->name));
  fp->hits.store(0, std::memory_order_relaxed);
  fp->fires.store(0, std::memory_order_relaxed);
  fp->mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

/// g_armed is the hot-path gate: true iff any failpoint is not kOff.
void RefreshArmedFlag() {
  bool any = false;
  for (const FailpointState& fp : g_failpoints) {
    any |= fp.mode.load(std::memory_order_relaxed) !=
           static_cast<int>(FailpointMode::kOff);
  }
  detail::g_armed.store(any, std::memory_order_relaxed);
}

}  // namespace

namespace detail {

bool Evaluate(std::string_view name) {
  FailpointState* fp = Find(name);
  if (fp == nullptr) return false;
  const auto mode =
      static_cast<FailpointMode>(fp->mode.load(std::memory_order_relaxed));
  if (mode == FailpointMode::kOff) return false;
  const uint64_t hit = fp->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (mode) {
    case FailpointMode::kOff:
      break;
    case FailpointMode::kAlways:
      fire = true;
      break;
    case FailpointMode::kProbability: {
      // 53-bit uniform draw in [0, 1), indexed by hit ordinal.
      const double u =
          static_cast<double>(SplitMix64(fp->seed ^ hit) >> 11) * 0x1.0p-53;
      fire = u < fp->probability;
      break;
    }
    case FailpointMode::kNthHit:
      fire = hit == fp->n;
      break;
    case FailpointMode::kKillNthHit:
      if (hit == fp->n) {
        std::fprintf(stderr, "chaos: SIGKILL at failpoint %s (hit %llu)\n",
                     fp->name, static_cast<unsigned long long>(hit));
        std::fflush(stderr);
        std::raise(SIGKILL);
      }
      break;
  }
  if (fire) fp->fires.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

}  // namespace detail

std::vector<std::string_view> RegisteredFailpoints() {
  std::vector<std::string_view> names;
  for (const FailpointState& fp : g_failpoints) names.push_back(fp.name);
  return names;
}

void ArmAll(uint64_t seed, double probability) {
  for (FailpointState& fp : g_failpoints) {
    Arm(&fp, FailpointMode::kProbability, probability, 0, seed);
  }
  RefreshArmedFlag();
}

Status ArmSpec(std::string_view spec, uint64_t seed) {
  const size_t eq = spec.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("failpoint spec must be name=mode: " +
                                   std::string(spec));
  }
  const std::string_view name = spec.substr(0, eq);
  const std::string_view mode = spec.substr(eq + 1);
  FailpointState* fp = Find(name);
  if (fp == nullptr) {
    return Status::InvalidArgument("unknown failpoint '" + std::string(name) +
                                   "'");
  }
  auto parse_u64 = [](std::string_view s, uint64_t* out) {
    if (s.empty()) return false;
    char* end = nullptr;
    const std::string copy(s);
    *out = std::strtoull(copy.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
  };
  if (mode == "off") {
    Arm(fp, FailpointMode::kOff, 0.0, 0, seed);
  } else if (mode == "always") {
    Arm(fp, FailpointMode::kAlways, 0.0, 0, seed);
  } else if (mode.rfind("prob:", 0) == 0) {
    char* end = nullptr;
    const std::string copy(mode.substr(5));
    const double p = std::strtod(copy.c_str(), &end);
    if (copy.empty() || end == nullptr || *end != '\0' || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("bad probability in failpoint spec: " +
                                     std::string(spec));
    }
    Arm(fp, FailpointMode::kProbability, p, 0, seed);
  } else if (mode.rfind("nth:", 0) == 0) {
    uint64_t n = 0;
    if (!parse_u64(mode.substr(4), &n) || n == 0) {
      return Status::InvalidArgument("bad hit ordinal in failpoint spec: " +
                                     std::string(spec));
    }
    Arm(fp, FailpointMode::kNthHit, 0.0, n, seed);
  } else if (mode.rfind("kill:", 0) == 0) {
    uint64_t n = 0;
    if (!parse_u64(mode.substr(5), &n) || n == 0) {
      return Status::InvalidArgument("bad hit ordinal in failpoint spec: " +
                                     std::string(spec));
    }
    Arm(fp, FailpointMode::kKillNthHit, 0.0, n, seed);
  } else {
    return Status::InvalidArgument(
        "failpoint mode must be off|always|prob:P|nth:N|kill:N: " +
        std::string(spec));
  }
  RefreshArmedFlag();
  return Status::OK();
}

void DisarmAll() {
  for (FailpointState& fp : g_failpoints) {
    fp.mode.store(static_cast<int>(FailpointMode::kOff),
                  std::memory_order_relaxed);
    fp.hits.store(0, std::memory_order_relaxed);
    fp.fires.store(0, std::memory_order_relaxed);
  }
  detail::g_armed.store(false, std::memory_order_relaxed);
}

uint64_t HitCount(std::string_view name) {
  const FailpointState* fp = Find(name);
  return fp == nullptr ? 0 : fp->hits.load(std::memory_order_relaxed);
}

uint64_t FireCount(std::string_view name) {
  const FailpointState* fp = Find(name);
  return fp == nullptr ? 0 : fp->fires.load(std::memory_order_relaxed);
}

FailpointMode ModeOf(std::string_view name) {
  const FailpointState* fp = Find(name);
  if (fp == nullptr) return FailpointMode::kOff;
  return static_cast<FailpointMode>(fp->mode.load(std::memory_order_relaxed));
}

std::vector<FailpointInfo> Snapshot() {
  std::vector<FailpointInfo> out;
  for (const FailpointState& fp : g_failpoints) {
    FailpointInfo info;
    info.name = fp.name;
    info.mode =
        static_cast<FailpointMode>(fp.mode.load(std::memory_order_relaxed));
    info.hits = fp.hits.load(std::memory_order_relaxed);
    info.fires = fp.fires.load(std::memory_order_relaxed);
    out.push_back(info);
  }
  return out;
}

std::string_view ModeName(FailpointMode mode) {
  switch (mode) {
    case FailpointMode::kOff:
      return "off";
    case FailpointMode::kAlways:
      return "always";
    case FailpointMode::kProbability:
      return "prob";
    case FailpointMode::kNthHit:
      return "nth";
    case FailpointMode::kKillNthHit:
      return "kill";
  }
  return "?";
}

}  // namespace lego::chaos
