#include "lego/synthesis.h"

#include <algorithm>
#include <string>

namespace lego::core {

namespace {

using Sequence = std::vector<sql::StatementType>;

uint64_t Bit(sql::StatementType t) {
  return uint64_t{1} << static_cast<int>(t);
}

/// out[r]: the types with an r-step walk over `map` that ends in `targets`.
std::vector<uint64_t> WalkableTo(const TypeAffinityMap& map, uint64_t targets,
                                 int steps) {
  std::vector<uint64_t> out(static_cast<size_t>(steps) + 1, 0);
  out[0] = targets;
  for (int r = 1; r <= steps; ++r) {
    for (int t = 0; t < sql::kNumStatementTypes; ++t) {
      if (map.SuccessorMask(static_cast<sql::StatementType>(t)) & out[r - 1]) {
        out[r] |= uint64_t{1} << t;
      }
    }
  }
  return out;
}

/// Depth-first enumeration of the walks of one length that put the new
/// affinity t1 -> t2 at one position: the prefix (the first `split` types)
/// runs over the affinities synthesized before and ends in t1, the rest
/// runs over them plus t1 -> t2. The tables prune every branch that cannot
/// reach the full length, so each step taken leads to an output.
struct Walker {
  const TypeAffinityMap& before;
  const TypeAffinityMap& after;
  const std::vector<uint64_t>& ends_in_t1;  // over `before`
  const std::vector<uint64_t>& extends;     // over `after`
  uint64_t start_types;
  sql::StatementType t2;
  size_t limit;
  std::vector<Sequence>* out;
  Sequence seq;
  size_t length = 0;
  size_t split = 0;

  void Walk() {
    size_t i = seq.size();
    if (i == length) {
      out->push_back(seq);
      return;
    }
    uint64_t next =
        i < split ? (i == 0 ? start_types : before.SuccessorMask(seq.back())) &
                        ends_in_t1[split - 1 - i]
                  : (i == split ? Bit(t2) : after.SuccessorMask(seq.back())) &
                        extends[length - 1 - i];
    for (; next != 0 && out->size() < limit; next &= next - 1) {
      seq.push_back(static_cast<sql::StatementType>(__builtin_ctzll(next)));
      Walk();
      seq.pop_back();
    }
  }
};

}  // namespace

std::vector<Sequence> SequenceSynthesizer::OnNewAffinity(
    sql::StatementType t1, sql::StatementType t2, size_t limit) {
  const TypeAffinityMap before = synthesized_;
  if (!synthesized_.Add(t1, t2)) return {};
  int steps = std::max(0, max_len_ - 2);
  std::vector<uint64_t> ends_in_t1 = WalkableTo(before, Bit(t1), steps);
  std::vector<uint64_t> extends = WalkableTo(
      synthesized_, (uint64_t{1} << sql::kNumStatementTypes) - 1, steps);
  std::vector<Sequence> out;
  Walker walker{before, synthesized_, ends_in_t1, extends, start_types_,
                t2,     limit,        &out,       {}};
  for (int length = 2; length <= max_len_; ++length) {
    for (int split = 1; split < length && out.size() < limit; ++split) {
      if (!(extends[length - 1 - split] & Bit(t2))) continue;
      walker.length = static_cast<size_t>(length);
      walker.split = static_cast<size_t>(split);
      walker.Walk();
    }
  }
  return out;
}

namespace {
constexpr uint32_t kSynthTag = persist::ChunkTag("SYNT");
}  // namespace

Status SequenceSynthesizer::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kSynthTag);
  w->WriteI64(max_len_);
  LEGO_RETURN_IF_ERROR(synthesized_.SaveState(w));
  w->EndChunk();
  return Status::OK();
}

Status SequenceSynthesizer::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kSynthTag));
  int max_len = static_cast<int>(r->ReadI64());
  if (r->ok() && max_len != max_len_) {
    return Status::InvalidArgument(
        "synthesizer state saved with max_len " + std::to_string(max_len) +
        ", this campaign uses " + std::to_string(max_len_));
  }
  LEGO_RETURN_IF_ERROR(synthesized_.LoadState(r));
  return r->ExitChunk();
}

}  // namespace lego::core
