#include "workloads/virusscan.hpp"

#include <gtest/gtest.h>

namespace rattrap::workloads {
namespace {

TEST(AhoCorasick, FindsAllOccurrences) {
  const AhoCorasick automaton({"abc", "bcd", "zz"});
  const std::string text = "xabcdyzzabc";
  std::vector<std::uint8_t> data(text.begin(), text.end());
  // "abc" at 1 and 8, "bcd" at 2, "zz" at 6 -> 4 matches.
  EXPECT_EQ(automaton.scan(data), 4u);
}

TEST(AhoCorasick, OverlappingPatterns) {
  const AhoCorasick automaton({"aa"});
  const std::string text = "aaaa";  // matches at 0,1,2
  std::vector<std::uint8_t> data(text.begin(), text.end());
  EXPECT_EQ(automaton.scan(data), 3u);
}

TEST(AhoCorasick, PatternInsidePattern) {
  const AhoCorasick automaton({"he", "she", "hers"});
  const std::string text = "shers";
  std::vector<std::uint8_t> data(text.begin(), text.end());
  // "she"@0, "he"@1, "hers"@1 -> 3.
  EXPECT_EQ(automaton.scan(data), 3u);
}

TEST(AhoCorasick, TransitionCountEqualsBytesScanned) {
  const AhoCorasick automaton({"abc"});
  std::vector<std::uint8_t> data(1000, 'x');
  std::uint64_t transitions = 0;
  EXPECT_EQ(automaton.scan(data, &transitions), 0u);
  EXPECT_EQ(transitions, 1000u);
}

TEST(AhoCorasick, EmptyInput) {
  const AhoCorasick automaton({"abc"});
  EXPECT_EQ(automaton.scan({}), 0u);
}

TEST(AhoCorasick, NodeCountBoundedByTotalPatternLength) {
  const std::vector<std::string> patterns = {"abcd", "abce", "xyz"};
  const AhoCorasick automaton(patterns);
  EXPECT_LE(automaton.node_count(), 1u + 4 + 1 + 3);  // shared prefixes
  EXPECT_EQ(automaton.pattern_count(), 3u);
}

TEST(SignatureDb, DeterministicAndSized) {
  const auto a = make_signature_db(100, 5);
  const auto b = make_signature_db(100, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  for (const auto& sig : a) {
    EXPECT_GE(sig.size(), 8u);
    EXPECT_LE(sig.size(), 24u);
  }
}

TEST(Corpus, PlantedSignaturesAreFound) {
  const auto db = make_signature_db(50, 9);
  const AhoCorasick automaton(db);
  const auto corpus = make_corpus(100000, db, 12, 1234);
  EXPECT_GE(automaton.scan(corpus), 12u);  // plants may overlap: >= 12
}

TEST(Corpus, CleanCorpusHasAlmostNoMatches) {
  const auto db = make_signature_db(50, 9);
  const AhoCorasick automaton(db);
  const auto corpus = make_corpus(100000, db, 0, 77);
  // Random bytes virtually never contain an 8-byte printable signature.
  EXPECT_EQ(automaton.scan(corpus), 0u);
}

TEST(FileTree, TotalsAndBoundsHold) {
  const auto tree = make_file_tree(4'500'000, 7);
  std::uint64_t total = 0;
  for (const auto file : tree) {
    EXPECT_GE(file, 4u * 1024);
    EXPECT_LE(file, 2u * 1024 * 1024 + 4096);
    total += file;
  }
  EXPECT_LE(total, 4'500'000u);
  EXPECT_GT(total, 4'000'000u);
  EXPECT_GT(tree.size(), 10u);
  EXPECT_LT(tree.size(), 80u);
}

TEST(FileTree, DeterministicInSeed) {
  EXPECT_EQ(make_file_tree(1 << 20, 3), make_file_tree(1 << 20, 3));
  EXPECT_NE(make_file_tree(1 << 20, 3), make_file_tree(1 << 20, 4));
}

TEST(FileTree, IoOpsEqualFileCount) {
  VirusScanWorkload workload;
  sim::Rng rng(5);
  const TaskSpec spec = workload.make_task(rng, 1);
  // The spec's io_ops is the actual file count of its generated tree —
  // consistency between the transfer model and the I/O model.
  EXPECT_GT(spec.io_ops, 10u);
  EXPECT_LT(spec.io_ops, 80u);
}

TEST(VirusScanTask, ExecuteDeterministic) {
  VirusScanWorkload workload;
  sim::Rng rng(10);
  const TaskSpec spec = workload.make_task(rng, 1);
  EXPECT_EQ(workload.execute(spec).checksum,
            workload.execute(spec).checksum);
}

TEST(VirusScanTask, IsTheIoHeaviestWorkload) {
  VirusScanWorkload workload;
  sim::Rng rng(11);
  const TaskSpec spec = workload.make_task(rng, 1);
  EXPECT_GT(spec.input_file_bytes, 4ull * 1024 * 1024);
  EXPECT_GT(spec.io_ops, 10u);
  const TaskResult result = workload.execute(spec);
  EXPECT_EQ(result.units.io_bytes, spec.input_file_bytes);
}

TEST(VirusScanTask, ComputeScalesWithDeclaredBytes) {
  VirusScanWorkload workload;
  sim::Rng rng(12);
  TaskSpec small = workload.make_task(rng, 1);
  TaskSpec large = small;
  large.input_file_bytes = small.input_file_bytes * 2;
  EXPECT_NEAR(
      static_cast<double>(workload.execute(large).units.compute),
      2.0 * static_cast<double>(workload.execute(small).units.compute),
      static_cast<double>(workload.execute(small).units.compute) * 0.01);
}

}  // namespace
}  // namespace rattrap::workloads
