// util/flags: the one command-line parser of the `oodb` tool and the
// bench mains. Pins the parsing rules, and the usage errors (exit 2)
// that malformed numbers produce in each subcommand that takes them.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tools/tools.h"
#include "util/flags.h"

namespace oodb {
namespace {

/// argv for one parse: argv[0] is the program, the rest `args`.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (std::string& s : storage_) ptrs_.push_back(s.data());
    ptrs_.push_back(nullptr);
  }
  int argc() const { return static_cast<int>(storage_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

/// Parses `args`; returns -1 when parsing says carry on, else the exit
/// code.
int Parse(FlagSet* flags, std::vector<std::string> args) {
  Argv argv(std::move(args));
  int exit_code = -1;
  return flags->Parse(argv.argc(), argv.argv(), &exit_code) ? -1
                                                            : exit_code;
}

TEST(ParseNumberTest, UnsignedRejectsWhatStoulWouldMisread) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUnsigned("42", UINT64_MAX, &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseUnsigned("18446744073709551615", UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  for (const char* bad : {"", "abc", "x", "12x", " 1", "+1", "-1", "1.5",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUnsigned(bad, UINT64_MAX, &v)) << bad;
  }
  EXPECT_TRUE(ParseUnsigned("255", 255, &v));
  EXPECT_FALSE(ParseUnsigned("256", 255, &v));
  EXPECT_FALSE(ParseUnsigned("7", 5, &v));
  EXPECT_TRUE(ParseUnsigned("5", 5, &v));
}

TEST(ParseNumberTest, SignedAndDouble) {
  int64_t i = 0;
  EXPECT_TRUE(ParseSigned("-1", INT64_MIN, INT64_MAX, &i));
  EXPECT_EQ(i, -1);
  EXPECT_TRUE(ParseSigned("-9223372036854775808", INT64_MIN, INT64_MAX, &i));
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_FALSE(ParseSigned("9223372036854775808", INT64_MIN, INT64_MAX, &i));
  EXPECT_FALSE(ParseSigned("-", INT64_MIN, INT64_MAX, &i));
  EXPECT_FALSE(ParseSigned("-1", 0, 10, &i));
  double d = 0;
  EXPECT_TRUE(ParseDouble("0.25", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_TRUE(ParseDouble("1e3", &d));
  EXPECT_DOUBLE_EQ(d, 1000);
  for (const char* bad : {"", "abc", "1.5x", " 1", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
}

TEST(FlagSetTest, ParsesEveryKind) {
  bool on = false;
  std::string name;
  size_t count = 0;
  int64_t offset = 0;
  double ratio = 0;
  std::vector<std::string> rest;
  FlagSet flags("prog", "usage: prog\n");
  flags.Bool("on", &on);
  flags.String("name", &name);
  flags.Unsigned("count", &count);
  flags.Custom("offset", [&offset](const std::string& value) {
    return ParseSigned(value, INT64_MIN, INT64_MAX, &offset);
  });
  flags.Double("ratio", &ratio);
  flags.Positionals(&rest);
  EXPECT_EQ(Parse(&flags, {"a", "--on", "--name=x=y", "--count=3",
                           "--offset=-2", "--ratio=0.5", "-", "b"}),
            -1);
  EXPECT_TRUE(on);
  EXPECT_EQ(name, "x=y");
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(offset, -2);
  EXPECT_DOUBLE_EQ(ratio, 0.5);
  EXPECT_EQ(rest, (std::vector<std::string>{"a", "-", "b"}));
}

TEST(FlagSetTest, HelpExitsZero) {
  FlagSet flags("prog", "usage: prog\n");
  EXPECT_EQ(Parse(&flags, {"--help"}), 0);
  EXPECT_EQ(Parse(&flags, {"-h"}), 0);
}

TEST(FlagSetTest, UsageErrorsExitTwo) {
  bool on = false;
  size_t count = 0;
  uint8_t small = 0;
  std::string name;
  FlagSet flags("prog", "usage: prog\n");
  flags.Bool("on", &on);
  flags.Unsigned("count", &count);
  flags.Unsigned("small", &small);
  flags.String("name", &name);
  EXPECT_EQ(Parse(&flags, {"--bogus"}), 2);
  EXPECT_EQ(Parse(&flags, {"-x"}), 2);
  EXPECT_EQ(Parse(&flags, {"positional"}), 2);  // nobody collects them
  EXPECT_EQ(Parse(&flags, {"--on=1"}), 2);      // switches take no value
  EXPECT_EQ(Parse(&flags, {"--name"}), 2);      // options need one
  EXPECT_EQ(Parse(&flags, {"--count=abc"}), 2);
  EXPECT_EQ(Parse(&flags, {"--count="}), 2);
  EXPECT_EQ(Parse(&flags, {"--count=-1"}), 2);
  EXPECT_EQ(Parse(&flags, {"--count=99999999999999999999999"}), 2);
  EXPECT_EQ(Parse(&flags, {"--small=256"}), 2);  // does not fit uint8_t
  EXPECT_EQ(Parse(&flags, {"--small=255"}), -1);
  EXPECT_EQ(small, 255);
  EXPECT_EQ(flags.UsageError("late check"), 2);
}

TEST(FlagSetTest, PassUnknownKeepsTheRestInOrder) {
  std::string metrics;
  std::vector<char*> rest;
  FlagSet flags("prog", "usage: prog\n");
  flags.String("metrics-json", &metrics);
  flags.PassUnknown(&rest);
  Argv argv({"--benchmark_filter=NONE", "--metrics-json=m.json", "-x"});
  int exit_code = -1;
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv(), &exit_code));
  EXPECT_EQ(metrics, "m.json");
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_STREQ(rest[0], "--benchmark_filter=NONE");
  EXPECT_STREQ(rest[1], "-x");
}

/// Runs an `oodb` subcommand in-process; argv[0] is the subcommand.
int RunTool(int (*tool)(int, char**), std::vector<std::string> args) {
  Argv argv(std::move(args));
  return tool(argv.argc(), argv.argv());
}

TEST(OodbToolFlagsTest, MalformedNumbersAreUsageErrors) {
  // Each of these used to abort on an uncaught std::invalid_argument
  // (trace, top) or silently read the number as 0 (walinspect, crash).
  EXPECT_EQ(RunTool(tools::TraceMain, {"--threads=abc"}), 2);
  EXPECT_EQ(RunTool(tools::TraceMain, {"--txns=1e3"}), 2);
  EXPECT_EQ(RunTool(tools::TopMain, {"--live", "--threads=x"}), 2);
  EXPECT_EQ(RunTool(tools::TopMain, {"--top-k=-3", "series.jsonl"}), 2);
  EXPECT_EQ(RunTool(tools::WalInspectMain, {"--txn=abc", "wal.1"}), 2);
  EXPECT_EQ(RunTool(tools::WalInspectMain, {"--from=", "wal.1"}), 2);
  EXPECT_EQ(RunTool(tools::CrashMain, {"--txns=abc"}), 2);
  EXPECT_EQ(RunTool(tools::CrashMain, {"--sweep=3:x"}), 2);
  EXPECT_EQ(RunTool(tools::CrashMain, {"--sweep=1:2:3:4"}), 2);
}

TEST(OodbToolFlagsTest, OtherUsageErrorsExitTwo) {
  EXPECT_EQ(RunTool(tools::LintMain, {"--bogus"}), 2);
  EXPECT_EQ(RunTool(tools::InferMain, {"nosuchschema"}), 2);
  EXPECT_EQ(RunTool(tools::ExplainMain, {"--format=svg"}), 2);
  EXPECT_EQ(RunTool(tools::TraceMain, {"--scheduler=bogus"}), 2);
  EXPECT_EQ(RunTool(tools::TopMain, {}), 2);  // neither file nor --live
  EXPECT_EQ(RunTool(tools::TopMain, {"--live", "series.jsonl"}), 2);
  EXPECT_EQ(RunTool(tools::WalInspectMain, {}), 2);
  EXPECT_EQ(RunTool(tools::CheckTraceMain, {}), 2);
  EXPECT_EQ(RunTool(tools::CheckTraceMain, {"a", "b"}), 2);
}

}  // namespace
}  // namespace oodb
