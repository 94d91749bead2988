// The shared command-line grammar (src/util/flags.h): both spellings,
// positionals anywhere, typed values with their range checks, and the
// errors and usage text generated from the registrations.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/flags.h"

namespace fairem {
namespace {

/// A FlagSet with one flag of every kind, bound to the members.
struct Fixture {
  bool pairwise = false;
  std::string out;
  std::optional<std::string> spec;
  std::vector<std::string> datasets;
  std::vector<std::string> fail_on;
  bool by_stage = false;
  int format = 0;
  double scale = 1.0;
  double tolerance = 0.10;
  int jobs = 1;
  int reps = 3;
  uint64_t seed = 0;
  FlagSet flags;

  Fixture() {
    flags.Bool("--pairwise", &pairwise);
    flags.String("--out", &out, "FILE");
    flags.String("--spec", &spec, "SPEC");
    flags.List("--datasets", &datasets, "a,b");
    flags.Repeated("--fail_on", &fail_on, "SPEC");
    flags.Choice("--by", &by_stage, {{"stack", false}, {"stage", true}});
    flags.Choice("--format", &format, {{"json", 0}, {"prom", 1}, {"", 2}},
                 /*fold_case=*/true);
    flags.Number("--scale", &scale, "S");
    flags.Number("--tolerance", &tolerance, "T", 0.0);
    flags.Number("--jobs", &jobs, "N", 1);
    flags.Number("-n", &reps, "N");
    flags.Number("--seed", &seed, "N");
  }

  Status Parse(const std::vector<std::string>& args,
               std::vector<std::string>* positionals = nullptr) {
    return flags.Parse(args, positionals);
  }
};

TEST(FlagsTest, SpaceAndEqualsSpellingsAgree) {
  Fixture spaced;
  ASSERT_TRUE(spaced.Parse({"--scale", "0.5", "--out", "x.json", "--jobs",
                            "4", "--by", "stage", "-n", "7"})
                  .ok());
  Fixture equals;
  ASSERT_TRUE(equals.Parse({"--scale=0.5", "--out=x.json", "--jobs=4",
                            "--by=stage", "-n=7"})
                  .ok());
  for (const Fixture* f : {&spaced, &equals}) {
    EXPECT_EQ(f->scale, 0.5);
    EXPECT_EQ(f->out, "x.json");
    EXPECT_EQ(f->jobs, 4);
    EXPECT_TRUE(f->by_stage);
    EXPECT_EQ(f->reps, 7);
  }
  // Only the first '=' splits: the value keeps the rest.
  Fixture eq_in_value;
  ASSERT_TRUE(eq_in_value.Parse({"--out=a=b"}).ok());
  EXPECT_EQ(eq_in_value.out, "a=b");
}

TEST(FlagsTest, FlagsBeforeBetweenAndAfterPositionals) {
  Fixture f;
  std::vector<std::string> positionals;
  ASSERT_TRUE(f.Parse({"--pairwise", "first", "--scale", "2", "second", "-",
                       "--seed=5", "third"},
                      &positionals)
                  .ok());
  EXPECT_EQ(positionals,
            (std::vector<std::string>{"first", "second", "-", "third"}));
  EXPECT_TRUE(f.pairwise);
  EXPECT_EQ(f.scale, 2.0);
  EXPECT_EQ(f.seed, 5u);
}

TEST(FlagsTest, DefaultsSurviveWhenFlagsAreAbsent) {
  Fixture f;
  ASSERT_TRUE(f.Parse({}).ok());
  EXPECT_FALSE(f.pairwise);
  EXPECT_EQ(f.scale, 1.0);
  EXPECT_EQ(f.jobs, 1);
  EXPECT_EQ(f.seed, 0u);
  EXPECT_FALSE(f.by_stage);
}

TEST(FlagsTest, ErrorsNameTheFlag) {
  struct Case {
    std::vector<std::string> args;
    std::string named;
  };
  const Case cases[] = {
      {{"--no_such_flag"}, "'--no_such_flag'"},
      {{"--no_such_flag=3"}, "'--no_such_flag'"},
      {{"-x"}, "'-x'"},
      {{"--scale"}, "--scale"},         // missing value
      {{"--jobs", "1", "--out"}, "--out"},
      {{"--pairwise=true"}, "--pairwise"},  // a bool takes no value
      {{"--pairwise="}, "--pairwise"},
      {{"--by", "frames"}, "--by"},
      {{"--scale", "fast"}, "--scale"},
      {{"--scale", "inf"}, "--scale"},
      {{"--tolerance", "-0.5"}, "--tolerance"},
  };
  for (const Case& c : cases) {
    Fixture f;
    Status st = f.Parse(c.args);
    ASSERT_FALSE(st.ok()) << c.args[0];
    EXPECT_NE(st.message().find(c.named), std::string::npos) << st;
  }
}

TEST(FlagsTest, UnexpectedPositionalWithoutPositionalSlots) {
  Fixture f;
  Status st = f.Parse({"--scale", "2", "stray"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'stray'"), std::string::npos) << st;
}

TEST(FlagsTest, RepeatedAndCommaListFlagsAppend) {
  Fixture f;
  ASSERT_TRUE(f.Parse({"--fail_on", "a>1.1x", "--datasets", "Cricket,,Shoes",
                       "--fail_on=b<2abs", "--datasets=DBLP-ACM"})
                  .ok());
  EXPECT_EQ(f.fail_on, (std::vector<std::string>{"a>1.1x", "b<2abs"}));
  EXPECT_EQ(f.datasets,
            (std::vector<std::string>{"Cricket", "Shoes", "DBLP-ACM"}));
  // A scalar flag given twice keeps the last value.
  ASSERT_TRUE(f.Parse({"--jobs", "2", "--jobs", "3"}).ok());
  EXPECT_EQ(f.jobs, 3);
}

TEST(FlagsTest, Uint64RoundTripsPastTheDoublePrecision) {
  // 2^53 + 1 is the first integer a double cannot hold: parsing it as a
  // double and casting lands on 2^53.
  const uint64_t want = 9007199254740993ULL;
  ASSERT_NE(static_cast<uint64_t>(9007199254740993.0), want);
  Fixture f;
  ASSERT_TRUE(f.Parse({"--seed", "9007199254740993"}).ok());
  EXPECT_EQ(f.seed, want);
  ASSERT_TRUE(f.Parse({"--seed=18446744073709551615"}).ok());
  EXPECT_EQ(f.seed, UINT64_MAX);
}

TEST(FlagsTest, IntegerFlagsRejectNonIntegersAndOutOfRange) {
  for (const char* flag : {"--seed", "--jobs"}) {
    for (const char* value :
         {"-1", "2.5", "1e30", "0x10", "", "7x", "18446744073709551616"}) {
      Fixture f;
      Status st = f.Parse({flag, value});
      EXPECT_FALSE(st.ok()) << flag << " " << value;
      EXPECT_NE(st.message().find(flag), std::string::npos) << st;
      EXPECT_EQ(f.seed, 0u);
      EXPECT_EQ(f.jobs, 1);
    }
  }
  Fixture f;
  EXPECT_FALSE(f.Parse({"--jobs", "0"}).ok());           // below min 1
  EXPECT_FALSE(f.Parse({"--jobs", "3000000000"}).ok());  // past INT_MAX
  ASSERT_TRUE(f.Parse({"-n", "-1"}).ok());  // no min: negatives parse
  EXPECT_EQ(f.reps, -1);
}

TEST(FlagsTest, ChoicesMatchExactlyUnlessFoldingCase) {
  Fixture f;
  EXPECT_FALSE(f.Parse({"--by", "STAGE"}).ok());
  EXPECT_FALSE(f.by_stage);
  ASSERT_TRUE(f.Parse({"--format", "Prom"}).ok());
  EXPECT_EQ(f.format, 1);
  ASSERT_TRUE(f.Parse({"--format=JSON"}).ok());
  EXPECT_EQ(f.format, 0);
  // An empty spelling is a valid choice, and absent from the synopsis.
  ASSERT_TRUE(f.Parse({"--format="}).ok());
  EXPECT_EQ(f.format, 2);
  EXPECT_FALSE(f.Parse({"--format", "xml"}).ok());
}

TEST(FlagsTest, OptionalStringTellsAnEmptyValueFromAnAbsentFlag) {
  Fixture absent;
  ASSERT_TRUE(absent.Parse({"--out", ""}).ok());
  EXPECT_FALSE(absent.spec.has_value());
  Fixture empty;
  ASSERT_TRUE(empty.Parse({"--spec", ""}).ok());
  EXPECT_EQ(empty.spec, std::optional<std::string>(""));
  Fixture given;
  ASSERT_TRUE(given.Parse({"--spec=a=error", "--spec", "b=crash"}).ok());
  EXPECT_EQ(given.spec, std::optional<std::string>("b=crash"));
}

TEST(FlagsTest, UsageListsEveryRegisteredFlag) {
  Fixture f;
  EXPECT_EQ(f.flags.Synopsis(),
            "[--pairwise] [--out FILE] [--spec SPEC] [--datasets a,b] "
            "[--fail_on SPEC]... [--by stack|stage] [--format json|prom] "
            "[--scale S] [--tolerance T] [--jobs N] [-n N] [--seed N]");
  EXPECT_EQ(FlagSet().Synopsis(), "");
}

TEST(FlagsTest, ParseOrExitRejectsAnyArgumentOfAnEmptySet) {
  char prog[] = "bench_ablation";
  char stray[] = "--scale";
  char* argv[] = {prog, stray};
  EXPECT_EXIT(FlagSet().ParseOrExit(2, argv), ::testing::ExitedWithCode(1),
              "unknown flag '--scale'");
  char* no_args[] = {prog};
  FlagSet().ParseOrExit(1, no_args);  // returns: nothing to reject
}

}  // namespace
}  // namespace fairem
