#include "lego/affinity.h"

namespace lego::core {

std::vector<TypeAffinityMap::Affinity> TypeAffinityMap::Analyze(
    const std::vector<sql::StatementType>& type_sequence) {
  std::vector<Affinity> discovered;
  // Algorithm 2: lastType starts NULL; equal adjacent types are skipped
  // (composing one type repeatedly does not add sequence abundance).
  bool have_last = false;
  sql::StatementType last = sql::StatementType::kNumTypes;
  for (sql::StatementType current : type_sequence) {
    if (have_last && last != current) {
      if (Add(last, current)) discovered.emplace_back(last, current);
    }
    last = current;
    have_last = true;
  }
  return discovered;
}

bool TypeAffinityMap::Add(sql::StatementType t1, sql::StatementType t2) {
  if (Contains(t1, t2)) return false;
  successors_[static_cast<size_t>(t1)] |= uint64_t{1} << static_cast<int>(t2);
  ++count_;
  return true;
}

std::vector<TypeAffinityMap::Affinity> TypeAffinityMap::All() const {
  std::vector<Affinity> out;
  out.reserve(count_);
  for (int t1 = 0; t1 < sql::kNumStatementTypes; ++t1) {
    for (uint64_t m = successors_[t1]; m != 0; m &= m - 1) {
      out.emplace_back(static_cast<sql::StatementType>(t1),
                       static_cast<sql::StatementType>(__builtin_ctzll(m)));
    }
  }
  return out;
}

void TypeAffinityMap::Clear() {
  successors_.fill(0);
  count_ = 0;
}

namespace {
constexpr uint32_t kAffinityTag = persist::ChunkTag("AFFN");
}  // namespace

Status TypeAffinityMap::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kAffinityTag);
  w->WriteU64(count_);
  for (const auto& [t1, t2] : All()) {
    w->WriteU8(static_cast<uint8_t>(t1));
    w->WriteU8(static_cast<uint8_t>(t2));
  }
  w->EndChunk();
  return Status::OK();
}

Status TypeAffinityMap::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kAffinityTag));
  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 2)) return r->status();
  std::vector<Affinity> pairs;
  pairs.reserve(n);
  constexpr uint8_t kNum = static_cast<uint8_t>(sql::StatementType::kNumTypes);
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t t1 = r->ReadU8();
    uint8_t t2 = r->ReadU8();
    if (!r->ok()) return r->status();
    if (t1 >= kNum || t2 >= kNum) {
      return Status::InvalidArgument("affinity pair with invalid type tag");
    }
    pairs.emplace_back(static_cast<sql::StatementType>(t1),
                       static_cast<sql::StatementType>(t2));
  }
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  Clear();
  for (const auto& [t1, t2] : pairs) Add(t1, t2);
  if (count_ != n) {
    return Status::InvalidArgument("affinity set contains duplicate pairs");
  }
  return Status::OK();
}

}  // namespace lego::core
