// Seeded mutation test for the ScenarioSpec text form: hostile spec text
// must either parse or fail with a located std::invalid_argument.
//
// The corpus is examples/specs/*.spec. Each case applies one to three
// seeded mutations to a corpus file:
//   - byte flips (one bit, or a byte from a set of grammar characters:
//     NUL, newline, '=', '#', signs, '.', ',', ':', 'e', 'x', digits);
//   - truncation at a random byte;
//   - line splices (a line of another corpus file inserted, substituted,
//     or joined to the head of a line of this one at random cut points);
//   - numeric-boundary substitution of a value: 2^63 - 1, 2^63, 2^64 - 1,
//     2^64, the int32 edges, -0, a lone sign, 1e-400, 1e309, nan, 0x and
//     the forms that must keep parsing (+5, .5, 0x1p-2, subnormals).
// Every input must then
//   - parse, and its canonical text must parse back to the same text and
//     the same key(); or
//   - throw std::invalid_argument whose message names a `line N` of the
//     input, where N is the first failing line: the lines before it parse,
//     and the lines through it fail with the same message.
// Any other exception, and any crash or sanitizer report, fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario_spec.hpp"
#include "support/example_specs.hpp"

namespace kncube::core {
namespace {

constexpr int kCases = 4000;

constexpr const char* kBoundaryValues[] = {
    "9223372036854775807",  "9223372036854775808",  "-9223372036854775808",
    "-9223372036854775809", "18446744073709551615", "18446744073709551616",
    "99999999999999999999999", "2147483647",        "2147483648",
    "-2147483648",          "-2147483649",          "-0",
    "+",                    "-",                    "1e-400",
    "-1e-400",              "1e309",                "-1e309",
    "nan",                  "inf",                  "0x",
    "0x1p-2",               ".5",                   "+5",
    "5e-1",                 "4.9406564584124654e-324", "2.2250738585072014e-308",
    "",                     " ",                    "1,",
    ",",                    "1:0:",                 "0:0:+,1:1:-",
    "true",                 "1",                    "0",
};

constexpr char kGrammarBytes[] = {'\0', '\n', '=', '#', ' ', '\t', '\r', '-', '+',
                                  '.',  ',',  ':', 'e', 'x', '0',  '9',  '\xff'};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

/// The first `n` lines of `text` (in parse_scenario's line numbering).
std::string first_lines(const std::string& text, int n) {
  std::size_t end = 0;
  for (int i = 0; i < n && end < text.size(); ++i) {
    const std::size_t nl = text.find('\n', end);
    end = nl == std::string::npos ? text.size() : nl + 1;
  }
  return text.substr(0, end);
}

int line_count(const std::string& text) {
  return static_cast<int>(split_lines(text).size());
}

/// N of the first `line N` in an error message, or -1.
int error_line(std::string_view what) {
  const std::size_t at = what.find("line ");
  if (at == std::string_view::npos) return -1;
  int n = 0;
  std::size_t i = at + 5;
  if (i >= what.size() || what[i] < '0' || what[i] > '9') return -1;
  for (; i < what.size() && what[i] >= '0' && what[i] <= '9'; ++i) n = n * 10 + (what[i] - '0');
  return n;
}

std::string mutate(std::string text, const std::vector<test_support::ExampleSpec>& corpus,
                   std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: {  // byte flips
      if (text.empty()) return text;
      for (std::uint64_t flips = 1 + rng() % 4; flips > 0; --flips) {
        char& c = text[rng() % text.size()];
        if (rng() % 2 == 0) {
          c = static_cast<char>(c ^ (1 << (rng() % 8)));
        } else {
          c = kGrammarBytes[rng() % sizeof(kGrammarBytes)];
        }
      }
      return text;
    }
    case 1:  // truncation
      return text.substr(0, rng() % (text.size() + 1));
    case 2: {  // line splice
      std::vector<std::string> lines = split_lines(text);
      const std::vector<std::string> donor =
          split_lines(corpus[rng() % corpus.size()].text);
      if (donor.empty()) return text;
      const std::string& line = donor[rng() % donor.size()];
      const std::size_t at = rng() % (lines.size() + 1);
      switch (rng() % 3) {
        case 0:
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), line);
          break;
        case 1:
          if (at < lines.size()) lines[at] = line;
          break;
        default:
          if (at < lines.size()) {
            const std::string head = lines[at].substr(0, rng() % (lines[at].size() + 1));
            lines[at] = head + line.substr(rng() % (line.size() + 1));
          }
          break;
      }
      return join_lines(lines);
    }
    default: {  // numeric-boundary substitution of one value
      std::vector<std::string> lines = split_lines(text);
      std::vector<std::size_t> settings;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!lines[i].empty() && lines[i][0] != '#' &&
            lines[i].find('=') != std::string::npos) {
          settings.push_back(i);
        }
      }
      if (settings.empty()) return text;
      std::string& line = lines[settings[rng() % settings.size()]];
      line = line.substr(0, line.find('=') + 1) +
             kBoundaryValues[rng() % std::size(kBoundaryValues)];
      return join_lines(lines);
    }
  }
}

enum class Outcome { kParsed, kRejected, kBroken };

/// Checks one input against the contract above; kBroken after recording
/// the failure.
Outcome check(const std::string& input) {
  ScenarioSpec spec;
  try {
    spec = parse_scenario(input);
  } catch (const std::invalid_argument& e) {
    const int line = error_line(e.what());
    EXPECT_GE(line, 1) << e.what();
    EXPECT_LE(line, line_count(input)) << e.what();
    if (line < 1 || line > line_count(input)) return Outcome::kBroken;
    try {
      (void)parse_scenario(first_lines(input, line - 1));
    } catch (const std::exception& before) {
      ADD_FAILURE() << "error named line " << line << " (" << e.what()
                    << ") but an earlier line fails: " << before.what();
      return Outcome::kBroken;
    }
    try {
      (void)parse_scenario(first_lines(input, line));
      ADD_FAILURE() << "the lines through line " << line << " parse: " << e.what();
      return Outcome::kBroken;
    } catch (const std::invalid_argument& through) {
      EXPECT_STREQ(through.what(), e.what());
      return std::string_view(through.what()) == e.what() ? Outcome::kRejected
                                                          : Outcome::kBroken;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
    return Outcome::kBroken;
  }
  const std::string text = format_scenario(spec);
  try {
    const ScenarioSpec back = parse_scenario(text);
    EXPECT_EQ(format_scenario(back), text);
    EXPECT_EQ(back.key(), spec.key());
    return format_scenario(back) == text && back.key() == spec.key()
               ? Outcome::kParsed
               : Outcome::kBroken;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "canonical text does not parse: " << e.what() << "\n" << text;
    return Outcome::kBroken;
  }
}

TEST(SpecTextMutation, EveryInputParsesOrFailsAtItsLine) {
  const auto corpus = test_support::example_specs();
  ASSERT_FALSE(corpus.empty());
  std::mt19937_64 rng(0x5EED5EC);
  int parsed = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string input = corpus[static_cast<std::size_t>(c) % corpus.size()].text;
    for (std::uint64_t m = 1 + rng() % 3; m > 0; --m) input = mutate(input, corpus, rng);
    const Outcome outcome = check(input);
    if (outcome == Outcome::kBroken) FAIL() << "case " << c << ", input:\n" << input;
    parsed += outcome == Outcome::kParsed;
  }
  // Both outcomes must be exercised for the test to mean anything.
  EXPECT_GT(parsed, kCases / 10);
  EXPECT_LT(parsed, kCases - kCases / 10);
}

}  // namespace
}  // namespace kncube::core
