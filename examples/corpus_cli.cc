// Corpus maintenance for cross-campaign reuse: inspect, merge, and distill
// the corpus files written by `fuzz_campaign_cli --export-corpus` and fed
// back with `--import-corpus`.
//
//   ./examples/corpus_cli info FILE...
//   ./examples/corpus_cli merge OUT FILE...
//   ./examples/corpus_cli distill IN OUT [profile] [--backend=inproc|forked]
//                                        [--max-stmt-ms N]
//
//   info    : print case/statement counts per file
//   merge   : concatenate corpora (dedup is distill's job)
//   distill : greedy cmin — replay IN through a fresh backend of `profile`
//             (default pglite, must match the donor campaign) and write the
//             smallest greedy subset covering the same edges to OUT
//
// Distillation then replays the kept subset on another fresh backend and
// exits non-zero if it covers fewer edges than the input (a determinism
// violation worth failing loudly on).

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/corpus_file.h"
#include "fuzz/distill.h"
#include "fuzz/harness.h"
#include "minidb/profile.h"

namespace {

size_t TotalStatements(const std::vector<lego::fuzz::TestCase>& cases) {
  size_t n = 0;
  for (const auto& tc : cases) n += tc.size();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lego;  // NOLINT(build/namespaces)

  fuzz::BackendOptions backend;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--backend" || arg.rfind("--backend=", 0) == 0) {
      std::string value;
      if (arg == "--backend") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "--backend needs a value\n");
          return 1;
        }
        value = argv[++i];
      } else {
        value = arg.substr(10);
      }
      std::optional<fuzz::BackendKind> kind = fuzz::ParseBackendKind(value);
      if (!kind.has_value()) {
        std::fprintf(stderr, "unknown backend '%s' (inproc | forked)\n",
                     value.c_str());
        return 1;
      }
      backend.kind = *kind;
    } else if (arg == "--max-stmt-ms") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--max-stmt-ms needs a value\n");
        return 1;
      }
      backend.max_stmt_ms = std::atoi(argv[++i]);
    } else if (arg.rfind("--max-stmt-ms=", 0) == 0) {
      backend.max_stmt_ms = std::atoi(arg.c_str() + 14);
    } else {
      pos.push_back(std::move(arg));
    }
  }

  if (pos.empty()) {
    std::fprintf(stderr,
                 "usage: corpus_cli info FILE...\n"
                 "       corpus_cli merge OUT FILE...\n"
                 "       corpus_cli distill IN OUT [profile] "
                 "[--backend=inproc|forked] [--max-stmt-ms N]\n");
    return 1;
  }
  const std::string& command = pos[0];

  if (command == "info") {
    if (pos.size() < 2) {
      std::fprintf(stderr, "info needs at least one corpus file\n");
      return 1;
    }
    for (size_t i = 1; i < pos.size(); ++i) {
      auto cases = fuzz::LoadCorpusFile(pos[i]);
      if (!cases.ok()) {
        std::fprintf(stderr, "%s: %s\n", pos[i].c_str(),
                     cases.status().ToString().c_str());
        return 1;
      }
      std::printf("%s: %zu cases, %zu statements\n", pos[i].c_str(),
                  cases->size(), TotalStatements(*cases));
    }
    return 0;
  }

  if (command == "merge") {
    if (pos.size() < 3) {
      std::fprintf(stderr, "merge needs an output and at least one input\n");
      return 1;
    }
    std::vector<fuzz::TestCase> all;
    for (size_t i = 2; i < pos.size(); ++i) {
      auto cases = fuzz::LoadCorpusFile(pos[i]);
      if (!cases.ok()) {
        std::fprintf(stderr, "%s: %s\n", pos[i].c_str(),
                     cases.status().ToString().c_str());
        return 1;
      }
      for (fuzz::TestCase& tc : *cases) all.push_back(std::move(tc));
    }
    Status saved = fuzz::SaveCorpusFile(all, pos[1]);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s: %s\n", pos[1].c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("merged %zu files -> %s (%zu cases)\n", pos.size() - 2,
                pos[1].c_str(), all.size());
    return 0;
  }

  if (command == "distill") {
    if (pos.size() < 3) {
      std::fprintf(stderr, "distill needs an input and an output file\n");
      return 1;
    }
    std::string profile_name = pos.size() > 3 ? pos[3] : "pglite";
    const minidb::DialectProfile* profile =
        minidb::DialectProfile::ByName(profile_name);
    if (profile == nullptr) {
      std::fprintf(stderr, "unknown profile '%s'\n", profile_name.c_str());
      return 1;
    }
    auto cases = fuzz::LoadCorpusFile(pos[1]);
    if (!cases.ok()) {
      std::fprintf(stderr, "%s: %s\n", pos[1].c_str(),
                   cases.status().ToString().c_str());
      return 1;
    }

    fuzz::ExecutionHarness harness(*profile, backend);
    fuzz::DistillStats stats;
    std::vector<fuzz::TestCase> kept =
        fuzz::DistillCorpus(*cases, &harness, &stats);

    Status saved = fuzz::SaveCorpusFile(kept, pos[2]);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s: %s\n", pos[2].c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("distilled %zu -> %zu cases (%zu replays on %s)\n",
                stats.original_cases, stats.kept_cases, stats.replays,
                profile->name.c_str());
    // Verify on a fresh harness: the kept subset alone must replay to the
    // full input's edge union.
    fuzz::ExecutionHarness verify(*profile, backend);
    for (const fuzz::TestCase& tc : kept) verify.Run(tc);
    std::printf("edges before: %zu\n", stats.original_edges);
    std::printf("edges after : %zu\n", verify.CoveredEdges());
    if (verify.CoveredEdges() != stats.original_edges) {
      std::fprintf(stderr,
                   "distillation lost coverage (non-deterministic replay?)\n");
      return 1;
    }
    return 0;
  }

  std::fprintf(stderr, "unknown command '%s' (info | merge | distill)\n",
               command.c_str());
  return 1;
}
