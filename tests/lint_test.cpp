// The linter's own suite: every rule has a seeded-violation fixture (exact
// rule/line asserted) and an allow-annotated twin proving suppression, plus
// the stripping corners that keep the lexical engine honest (violations
// inside comments, strings and raw strings must NOT fire — the fixtures in
// this very file depend on it).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace lint = eend::lint;

namespace {

std::vector<lint::Finding> run(const std::string& src,
                               const std::vector<std::string>& extra = {}) {
  return lint::lint_source(lint::SourceFile{"fixture.cpp", src}, extra);
}

/// Count findings for `rule`; asserts every reported line is in `lines`.
int count_rule(const std::vector<lint::Finding>& fs, lint::Rule rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

int line_of_first(const std::vector<lint::Finding>& fs, lint::Rule rule) {
  for (const auto& f : fs)
    if (f.rule == rule) return f.line;
  return -1;
}

}  // namespace

// ----------------------------------------------------------- rule table ---

TEST(LintRules, IdsRoundTrip) {
  for (const lint::Rule r : lint::all_rules()) {
    const auto back = lint::rule_from_id(lint::rule_id(r));
    ASSERT_TRUE(back.has_value()) << lint::rule_id(r);
    EXPECT_EQ(*back, r);
    EXPECT_FALSE(lint::rule_summary(r).empty());
  }
  EXPECT_FALSE(lint::rule_from_id("no-such-rule").has_value());
}

// ------------------------------------------------------- unordered-iter ---

TEST(LintUnorderedIter, RangeForOverMember) {
  const std::string src = R"(#include <unordered_map>
std::unordered_map<int, double> tbl_;
void f() {
  for (const auto& [k, v] : tbl_) { (void)k; (void)v; }
}
)";
  const auto fs = run(src);
  ASSERT_EQ(count_rule(fs, lint::Rule::UnorderedIter), 1);
  EXPECT_EQ(line_of_first(fs, lint::Rule::UnorderedIter), 4);
  EXPECT_NE(fs[0].message.find("tbl_"), std::string::npos);
  EXPECT_EQ(fs[0].file, "fixture.cpp");
}

TEST(LintUnorderedIter, AllowedTwinIsSuppressed) {
  const std::string src = R"(#include <unordered_map>
std::unordered_map<int, double> tbl_;
void f() {
  // eend-lint: allow(unordered-iter) — order-free: per-entry independent
  for (const auto& [k, v] : tbl_) { (void)k; (void)v; }
}
)";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintUnorderedIter, AllowCoversNextCodeLineAcrossCommentBlock) {
  const std::string src = R"(std::unordered_map<int, int> m_;
void f() {
  // eend-lint: allow(unordered-iter) — the explanation starts here and
  // continues over several comment lines before the loop itself.
  for (const auto& [k, v] : m_) { (void)k; (void)v; }
}
)";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintUnorderedIter, IteratorLoop) {
  const std::string src = R"(std::unordered_set<int> seen_;
void f() {
  for (auto it = seen_.begin(); it != seen_.end(); ++it) { (void)*it; }
}
)";
  const auto fs = run(src);
  ASSERT_EQ(count_rule(fs, lint::Rule::UnorderedIter), 1);
  EXPECT_EQ(line_of_first(fs, lint::Rule::UnorderedIter), 3);
}

TEST(LintUnorderedIter, ForEachAlgorithm) {
  const std::string src = R"(std::unordered_set<int> seen_;
void f() {
  std::for_each(seen_.begin(), seen_.end(), [](int) {});
}
)";
  const auto fs = run(src);
  ASSERT_EQ(count_rule(fs, lint::Rule::UnorderedIter), 1);
  EXPECT_EQ(line_of_first(fs, lint::Rule::UnorderedIter), 3);
}

TEST(LintUnorderedIter, LookupsDoNotFire) {
  const std::string src = R"(std::unordered_map<int, int> m_;
int f(int k) {
  auto it = m_.find(k);
  if (m_.count(k) > 0 && it != m_.end()) return it->second;
  return m_[k];
}
)";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintUnorderedIter, OrderedContainersDoNotFire) {
  const std::string src = R"(#include <map>
std::map<int, int> m_;
void f() {
  for (const auto& [k, v] : m_) { (void)k; (void)v; }
}
)";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintUnorderedIter, HeaderDeclaredMemberViaExtraNames) {
  // The member lives in the paired header; the .cpp only iterates it.
  const std::string src = R"(void Proto::dump() {
  for (const auto& [k, v] : table_) { (void)k; (void)v; }
}
)";
  EXPECT_TRUE(run(src).empty());  // no declaration in sight: cannot know
  const auto fs = run(src, {"table_"});
  ASSERT_EQ(count_rule(fs, lint::Rule::UnorderedIter), 1);
  EXPECT_EQ(line_of_first(fs, lint::Rule::UnorderedIter), 2);
}

TEST(LintUnorderedIter, PairedHeaderNamesFlowThroughLintFiles) {
  const std::vector<lint::SourceFile> files{
      {"src/p/proto.hpp", "#include <unordered_map>\n"
                          "std::unordered_map<int, int> table_;\n"},
      {"src/p/proto.cpp",
       "void dump() {\n"
       "  for (const auto& [k, v] : table_) { (void)k; (void)v; }\n"
       "}\n"},
  };
  const auto fs = lint::lint_files(files);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].file, "src/p/proto.cpp");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[0].rule, lint::Rule::UnorderedIter);
}

TEST(LintUnorderedIter, CollectNamesSeesAllUnorderedForms) {
  const auto names = lint::collect_unordered_names(
      "std::unordered_map<int, std::vector<int>> nested_;\n"
      "std::unordered_set<long> ids;\n"
      "std::unordered_multimap<int, int> mm;\n"
      "const std::unordered_map<int, int>& ref = mm2;\n"
      "std::unordered_map<int, int>::iterator it;\n"  // not a container
      "std::unordered_map<int, int> make_map();\n");  // function, skipped
  EXPECT_EQ(names, (std::vector<std::string>{"ids", "mm", "nested_", "ref"}));
}

// -------------------------------------------------------- nondet-source ---

TEST(LintNondetSource, EachBannedSourceFires) {
  struct Case {
    const char* snippet;
    const char* needle;
  };
  const Case cases[] = {
      {"int f() { return std::rand(); }", "rand"},
      {"void f() { srand(42); }", "srand"},
      {"int f() { std::random_device rd; return rd(); }", "random_device"},
      {"auto f() { return std::chrono::system_clock::now(); }",
       "system_clock"},
      {"auto f() { return std::chrono::high_resolution_clock::now(); }",
       "high_resolution_clock"},
      {"long f() { return time(nullptr); }", "time(nullptr)"},
      {"long f() { return time(NULL); }", "time(NULL)"},
  };
  for (const Case& c : cases) {
    const auto fs = run(c.snippet);
    ASSERT_EQ(count_rule(fs, lint::Rule::NondetSource), 1) << c.snippet;
    EXPECT_EQ(fs[0].line, 1);
    EXPECT_NE(fs[0].message.find(c.needle), std::string::npos) << c.snippet;
  }
}

TEST(LintNondetSource, AllowedTwinIsSuppressed) {
  const std::string src =
      "// eend-lint: allow(nondet-source) — timestamping a report header\n"
      "auto stamp() { return std::chrono::system_clock::now(); }\n";
  EXPECT_TRUE(run(src).empty());
  // The same sanctioned-sources carve-out covers high_resolution_clock.
  const std::string hrc =
      "// eend-lint: allow(nondet-source) — profiling scratch, not results\n"
      "auto t0() { return std::chrono::high_resolution_clock::now(); }\n";
  EXPECT_TRUE(run(hrc).empty());
}

TEST(LintNondetSource, SanctionedSourcesDoNotFire) {
  // steady_clock is sanctioned for THIS rule (raw-timing governs where it
  // may appear — asserted separately below).
  const std::string src = R"(#include <chrono>
auto f() { return std::chrono::steady_clock::now(); }
double g(eend::util::Rng& rng) { return rng.uniform(0.0, 1.0); }
long h(double time_s) { return static_cast<long>(time_s); }
void operand() {}
)";
  const auto fs = run(src);
  EXPECT_EQ(count_rule(fs, lint::Rule::NondetSource), 0);
}

// ----------------------------------------------------------- raw-timing ---

TEST(LintRawTiming, SteadyClockOutsideObsFires) {
  const std::string src = R"(#include <chrono>
auto f() { return std::chrono::steady_clock::now(); }
)";
  const auto fs = run(src);  // fixture.cpp: not an exempt path
  ASSERT_EQ(count_rule(fs, lint::Rule::RawTiming), 1);
  EXPECT_EQ(line_of_first(fs, lint::Rule::RawTiming), 2);
  EXPECT_NE(fs[0].message.find("PhaseTimer"), std::string::npos);
}

TEST(LintRawTiming, AllowedTwinIsSuppressed) {
  const std::string src =
      "// eend-lint: allow(raw-timing) — bootstrap code, obs not linked\n"
      "auto t0() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintRawTiming, ObsAndBenchPathsAreExempt) {
  const std::string body =
      "auto f() { return std::chrono::steady_clock::now(); }\n";
  for (const char* path :
       {"src/obs/trace.cpp", "bench/bench_micro_simcore.cpp",
        "src/obs/nested/timer.hpp"}) {
    const auto fs = lint::lint_source(lint::SourceFile{path, body});
    EXPECT_EQ(count_rule(fs, lint::Rule::RawTiming), 0) << path;
  }
  // "observability.cpp" is not an "obs" path segment; still fires.
  const auto fs =
      lint::lint_source(lint::SourceFile{"src/observability/t.cpp", body});
  EXPECT_EQ(count_rule(fs, lint::Rule::RawTiming), 1);
}

TEST(LintRawTiming, MentionsInCommentsAndStringsDoNotFire) {
  const std::string src =
      "// steady_clock is banned here\n"
      "const char* why = \"use steady_clock via PhaseTimer\";\n"
      "void f() { (void)why; }\n";
  EXPECT_TRUE(run(src).empty());
}

// -------------------------------------------------------------- ptr-key ---

TEST(LintPtrKey, PointerKeyedMapAndSetFire) {
  const std::string src = R"(#include <map>
std::map<Node*, int> loads_;
std::set<const Packet*> seen_;
)";
  const auto fs = run(src);
  ASSERT_EQ(count_rule(fs, lint::Rule::PtrKey), 2);
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[1].line, 3);
}

TEST(LintPtrKey, AllowedTwinIsSuppressed) {
  const std::string src =
      "// eend-lint: allow(ptr-key) — scratch set, never iterated\n"
      "std::set<Node*> scratch_;\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintPtrKey, ValueOrIdKeysDoNotFire) {
  const std::string src = R"(std::map<int, Node*> by_id_;
std::map<std::pair<int, int>, double> edges_;
std::set<std::string> labels_;
)";
  EXPECT_TRUE(run(src).empty());
}

// ---------------------------------------------------------- float-accum ---

TEST(LintFloatAccum, FloatPlusEqualsFires) {
  const std::string src = R"(double f(const double* xs, int n) {
  float sum = 0;
  for (int i = 0; i < n; ++i) sum += static_cast<float>(xs[i]);
  return sum;
}
)";
  const auto fs = run(src);
  ASSERT_EQ(count_rule(fs, lint::Rule::FloatAccum), 1);
  EXPECT_EQ(line_of_first(fs, lint::Rule::FloatAccum), 3);
  EXPECT_NE(fs[0].message.find("sum"), std::string::npos);
}

TEST(LintFloatAccum, AccumulateWithFloatInitFires) {
  const std::string src =
      "double f(const std::vector<double>& v) {\n"
      "  return std::accumulate(v.begin(), v.end(), 0.0f);\n"
      "}\n";
  const auto fs = run(src);
  ASSERT_EQ(count_rule(fs, lint::Rule::FloatAccum), 1);
  EXPECT_EQ(line_of_first(fs, lint::Rule::FloatAccum), 2);
}

TEST(LintFloatAccum, AllowedTwinIsSuppressed) {
  const std::string src =
      "void f(float dt) {\n"
      "  float t = 0;\n"
      "  // eend-lint: allow(float-accum) — GPU interop buffer is float\n"
      "  t += dt;\n"
      "}\n";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintFloatAccum, DoubleAccumulatorsDoNotFire) {
  const std::string src = R"(double f(const double* xs, int n) {
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += xs[i];
  return std::accumulate(xs, xs + n, 0.0);
}
)";
  EXPECT_TRUE(run(src).empty());
}

// ------------------------------------------------------------ bad-allow ---

TEST(LintBadAllow, UnknownRuleId) {
  const auto fs = run("// eend-lint: allow(no-such-rule) — whatever\n");
  ASSERT_EQ(count_rule(fs, lint::Rule::BadAllow), 1);
  EXPECT_NE(fs[0].message.find("no-such-rule"), std::string::npos);
}

TEST(LintBadAllow, MissingReasonAndNoSuppression) {
  const std::string src = R"(std::unordered_map<int, int> m_;
// eend-lint: allow(unordered-iter)
void f() { for (const auto& [k, v] : m_) { (void)k; (void)v; } }
)";
  const auto fs = run(src);
  // The reasonless annotation is itself a finding AND does not suppress.
  EXPECT_EQ(count_rule(fs, lint::Rule::BadAllow), 1);
  EXPECT_EQ(count_rule(fs, lint::Rule::UnorderedIter), 1);
}

TEST(LintBadAllow, MalformedAnnotationWithoutAllow) {
  const auto fs = run("// eend-lint: suppress-everything please\n");
  ASSERT_EQ(count_rule(fs, lint::Rule::BadAllow), 1);
}

TEST(LintBadAllow, CannotAllowBadAllow) {
  const auto fs = run("// eend-lint: allow(bad-allow) — nope\n");
  ASSERT_EQ(count_rule(fs, lint::Rule::BadAllow), 1);
}

// ------------------------------------------------------------ stripping ---

TEST(LintStripping, ViolationsInCommentsAndStringsDoNotFire) {
  const std::string src = R"fix(// for (auto& kv : some_unordered_map) {}
/* std::rand(); time(nullptr); */
const char* doc = "for (auto& kv : unordered_thing) std::rand()";
const char* raw = R"doc(
  std::map<int*, int> fake;
  float x = 0; x += 1;
)doc";
void f() { (void)doc; (void)raw; }
)fix";
  EXPECT_TRUE(run(src).empty());
}

TEST(LintStripping, LineNumbersSurviveBlockCommentsAndRawStrings) {
  const std::string src = "/* one\n   two\n   three */\n"
                          "const char* s = R\"(\nfiller\n)\";\n"
                          "std::unordered_map<int, int> m_;\n"
                          "void f() { for (const auto& [k, v] : m_) "
                          "{ (void)k; (void)v; } }\n";
  const auto fs = run(src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 8);
}

// ----------------------------------------------------------- the report ---

TEST(LintReport, JsonShapeAndEscaping) {
  std::vector<lint::Finding> fs;
  fs.push_back(lint::Finding{lint::Rule::UnorderedIter, "src/a \"b\".cpp", 7,
                             "iteration order", "for (auto& x : m_)"});
  const std::string json = lint::report_json(fs, 3);
  EXPECT_NE(json.find("\"tool\":\"eend_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\":3"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"unordered-iter\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
  EXPECT_NE(json.find("src/a \\\"b\\\".cpp"), std::string::npos);
}

TEST(LintReport, EmptyReportIsWellFormed) {
  EXPECT_EQ(lint::report_json({}, 0),
            "{\"tool\":\"eend_lint\",\"files_scanned\":0,\"count\":0,"
            "\"findings\":[]}");
}

// Findings come back sorted by (file, line, rule id) so reports diff
// cleanly between runs.
TEST(LintReport, FindingsAreSorted) {
  const std::vector<lint::SourceFile> files{
      {"z.cpp", "std::unordered_map<int, int> zm;\n"
                "void f() { for (const auto& [k, v] : zm) { (void)k; } }\n"},
      {"a.cpp", "std::map<int*, int> am;\n"
                "void g() { srand(7); }\n"},
  };
  const auto fs = lint::lint_files(files);
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].file, "a.cpp");
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].file, "a.cpp");
  EXPECT_EQ(fs[1].line, 2);
  EXPECT_EQ(fs[2].file, "z.cpp");
}

// ---------------------------------------------------------- allowances ---

#ifndef EEND_SOURCE_DIR
#error "EEND_SOURCE_DIR must point at src/"
#endif

// Every hashed-order allowance in the library is pinned here: the four DSDV
// whole-table loops over order_ (kept until the DSDVH golden re-pin) and
// ReactiveRouting::purge_link's erase-only cache sweep, plus the syntax
// example in the linter's own header. A new allow(unordered-iter) fails
// this test until it is reviewed and added to the table.
TEST(LintTree, UnorderedIterAllowancesArePinned) {
  namespace fs = std::filesystem;
  const std::string tag = "allow(unordered-iter)";
  std::map<std::string, int> found;  // path under src/ -> allowances
  int order_walks = 0;
  for (const auto& entry : fs::recursive_directory_iterator(EEND_SOURCE_DIR)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    const std::string rel =
        fs::relative(entry.path(), EEND_SOURCE_DIR).generic_string();
    bool pending = false;  // an allowance waits for its guarded code line
    for (std::string line; std::getline(in, line);) {
      const auto code = line.find_first_not_of(' ');
      if (line.find(tag) != std::string::npos) {
        ++found[rel];
        pending = true;
      } else if (pending && code != std::string::npos &&
                 line.compare(code, 2, "//") != 0) {
        order_walks += line.find(": order_)") != std::string::npos;
        pending = false;
      }
    }
  }
  const std::map<std::string, int> pinned{{"lint/lint.hpp", 1},
                                          {"routing/dsdv.cpp", 4},
                                          {"routing/reactive.cpp", 1}};
  EXPECT_EQ(found, pinned);
  EXPECT_EQ(order_walks, 4);
}
