// The spec-text splitters (support/text.hpp) against the stream
// splitters they replace.  The experiment and grid parsers once read
// each line with std::getline, cut it at its first '#' and pulled
// tokens with `std::istringstream >>`, and split comma lists with
// std::getline(',').  Copies of those loops are kept here as the
// reference: on seeded mutations of every committed spec
// (bench/specs/*.sweep and examples/*.sweep) and on hand cases, the new
// splitters must produce the identical lines, tokens and list items.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/text.hpp"

namespace {

using namespace std::string_literals;

/// One spec line: its raw text and its tokens.
struct Line {
  std::string raw;
  std::vector<std::string> tokens;
  bool operator==(const Line&) const = default;
};

using Lines = std::vector<Line>;
using Items = std::vector<std::string>;

Lines reference_lines(std::string_view text) {
  Lines lines;
  std::istringstream is{std::string(text)};
  std::string raw;
  while (std::getline(is, raw)) {
    std::string stripped = raw;
    if (const auto hash = stripped.find('#'); hash != std::string::npos) stripped.resize(hash);
    std::istringstream ls(stripped);
    Line line{raw, {}};
    for (std::string token; ls >> token;) line.tokens.push_back(token);
    lines.push_back(line);
  }
  return lines;
}

Items reference_items(std::string_view list) {
  Items items;
  std::stringstream ss{std::string(list)};
  std::string item;
  while (std::getline(ss, item, ',')) items.push_back(item);
  return items;
}

Lines split_lines(std::string_view text) {
  Lines lines;
  support::for_each_piece(text, '\n', [&](std::string_view raw) {
    support::LineTokens tokens(raw);
    Line line{std::string(raw), {}};
    for (std::string_view token = tokens.next(); !token.empty(); token = tokens.next()) {
      line.tokens.emplace_back(token);
    }
    lines.push_back(line);
  });
  return lines;
}

Items split_items(std::string_view list) {
  Items items;
  support::for_each_piece(list, ',', [&](std::string_view item) { items.emplace_back(item); });
  return items;
}

/// Both splitters agree on `text`, line by line and on the comma items
/// of every token and of every raw line.
void expect_same_splits(const std::string& text) {
  const Lines lines = split_lines(text);
  ASSERT_EQ(lines, reference_lines(text)) << "text: " << text;
  for (const Line& line : lines) {
    ASSERT_EQ(split_items(line.raw), reference_items(line.raw)) << "line: " << line.raw;
    for (const std::string& token : line.tokens) {
      ASSERT_EQ(split_items(token), reference_items(token)) << "token: " << token;
    }
  }
}

std::vector<std::string> committed_spec_texts() {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  const fs::path specs(DLS_SWEEP_SPEC_DIR);
  for (const fs::path& dir : {specs, specs.parent_path().parent_path() / "examples"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".sweep") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

TEST(SpecSplitters, SplittersMatchTheStreamsOnMutatedCommittedSpecs) {
  const std::vector<std::string> specs = committed_spec_texts();
  ASSERT_GE(specs.size(), 22u);
  // Bytes that sit on a splitting rule: every whitespace byte, the
  // comment and list separators, NUL and bytes >= 0x80.
  const std::string edge = " \t\n\v\f\r#,:\0\x80\xa0\xff"s;
  std::mt19937_64 rng(20261018);
  auto below = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  for (const std::string& spec : specs) {
    expect_same_splits(spec);
    for (int mutant = 0; mutant < 200; ++mutant) {
      std::string text = spec;
      for (std::size_t edits = 1 + below(8); edits-- > 0 && !text.empty();) {
        const std::size_t at = below(text.size());
        switch (below(4)) {
          case 0: text.insert(at, 1, edge[below(edge.size())]); break;
          case 1: text[at] = edge[below(edge.size())]; break;
          case 2: text.erase(at, 1 + below(4)); break;
          default: text.resize(at); break;  // drops the final newline
        }
      }
      expect_same_splits(text);
    }
  }
}

TEST(SpecSplitters, HandCasesMatchTheStreams) {
  const std::vector<std::string> texts = {
      "",
      "\n",
      "\n\n",
      "key value",                       // no final newline
      "key value\n",
      "key\tvalue\r\n",                  // CRLF, tab
      "key\vvalue\f\n",
      "  key   value  trailing\n",       // a trailing token
      "key value# comment glued\n",
      "#only a comment\n   # indented comment\n\n",
      "a\nb",                            // last line without newline
      "key \x80\xff\n",                  // high bytes stay in a token
      "key a\0b\n"s,                     // NUL stays in a token
      "speeds 1,2,\nspeeds ,1\nspeeds 1,,2\nspeeds ,\nspeeds ,,\n",
  };
  for (const std::string& text : texts) expect_same_splits(text);

  EXPECT_EQ(split_lines("key\tvalue\r\n"), (Lines{{"key\tvalue\r", {"key", "value"}}}));
  EXPECT_EQ(split_lines("a\n\nb"), (Lines{{"a", {"a"}}, {"", {}}, {"b", {"b"}}}));
  EXPECT_EQ(split_lines("x y#z\n"), (Lines{{"x y#z", {"x", "y"}}}));
  EXPECT_EQ(split_lines("k \x80\0\n"s), (Lines{{"k \x80\0"s, {"k", "\x80\0"s}}}));
  EXPECT_EQ(split_items("1,2,"), (Items{"1", "2"}));
  EXPECT_EQ(split_items(",1"), (Items{"", "1"}));
  EXPECT_EQ(split_items("1,,2"), (Items{"1", "", "2"}));
  EXPECT_EQ(split_items(""), Items{});
  EXPECT_EQ(split_items(","), (Items{""}));
}

}  // namespace
