#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/sweep.hpp"
#include "expect_error.hpp"

namespace paratick::core {
namespace {

// ---- parse_u64_flag ------------------------------------------------------

TEST(ParseU64Flag, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_u64_flag("-j", "4"), 4u);
  EXPECT_EQ(parse_u64_flag("--repeat", "0"), 0u);
  EXPECT_EQ(parse_u64_flag("--seed", "18446744073709551615"), ~0ull);
}

TEST(ParseU64Flag, Base0AcceptsHexAndOctal) {
  EXPECT_EQ(parse_u64_flag("--seed", "0xdead", ~0ull, 0), 0xdeadu);
  EXPECT_EQ(parse_u64_flag("--seed", "0XBEEF", ~0ull, 0), 0xbeefu);
  EXPECT_EQ(parse_u64_flag("--seed", "017", ~0ull, 0), 15u);
  // ...but base 10 does not: "0x" is trailing garbage there.
  EXPECT_SIM_ERROR((void)parse_u64_flag("-j", "0x10"), "not a valid integer");
}

TEST(ParseU64Flag, RejectsWhatStrtoulSilentlyAcceptedAsZero) {
  // The regression this helper exists for: all of these used to parse as
  // 0 via strtoul(text, nullptr, ...) and quietly reconfigure the sweep.
  EXPECT_SIM_ERROR((void)parse_u64_flag("-j", ""), "empty value");
  EXPECT_SIM_ERROR((void)parse_u64_flag("-j", "garbage"), "not a valid integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--seed", "0xzz", ~0ull, 0),
                   "not a valid integer");
}

TEST(ParseU64Flag, RejectsTrailingGarbageAndWhitespace) {
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", "12abc"),
                   "not a valid integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", "3 "),
                   "expected a non-negative integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", " 3"),
                   "expected a non-negative integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", "1\t2"),
                   "expected a non-negative integer");
}

TEST(ParseU64Flag, RejectsNegativesInsteadOfWrapping) {
  // strtoull("-3") wraps to 2^64-3; a thread/repeat count never means that.
  EXPECT_SIM_ERROR((void)parse_u64_flag("-j", "-3"),
                   "expected a non-negative integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--seed", "-1", ~0ull, 0),
                   "expected a non-negative integer");
}

TEST(ParseU64Flag, RejectsOutOfRange) {
  EXPECT_SIM_ERROR((void)parse_u64_flag("--seed", "99999999999999999999999"),
                   "value out of range");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--repeat", "4294967296", 0x7FFFFFFF),
                   "value out of range");
  EXPECT_EQ(parse_u64_flag("--repeat", "2147483647", 0x7FFFFFFF), 2147483647u);
}

TEST(ParseU64Flag, ErrorNamesTheFlagAndTheOffendingText) {
  try {
    (void)parse_u64_flag("--max-failures", "nope");
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--max-failures"), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"nope\""), std::string::npos) << msg;
  }
}

// ---- parse_double_flag ---------------------------------------------------

TEST(ParseDoubleFlag, AcceptsFiniteValues) {
  EXPECT_DOUBLE_EQ(parse_double_flag("--run-timeout", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double_flag("--fault-timer-drop", "0.02"), 0.02);
  EXPECT_DOUBLE_EQ(parse_double_flag("--fault-steal", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double_flag("--run-timeout", "0"), 0.0);
  EXPECT_DOUBLE_EQ(parse_double_flag("--delta", "-0.5", -1.0), -0.5);
}

TEST(ParseDoubleFlag, RejectsGarbageEmptyAndTrailingJunk) {
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", ""), "empty value");
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "fast"),
                   "not a valid number");
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "1.5s"),
                   "not a valid number");
}

TEST(ParseDoubleFlag, RejectsNonFiniteAndBelowMinimum) {
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "inf"),
                   "value out of range");
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "nan"),
                   "value out of range");
  EXPECT_SIM_ERROR((void)parse_double_flag("--fault-timer-drop", "-0.1"),
                   "value must not be negative");
  EXPECT_SIM_ERROR((void)parse_double_flag("--run-timeout", "1e999"),
                   "value out of range");
}

TEST(ParseChoiceFlag, ReturnsTheMatchingIndex) {
  EXPECT_EQ(parse_choice_flag("--lookahead-mode", "global",
                              {"global", "topology"}),
            0u);
  EXPECT_EQ(parse_choice_flag("--lookahead-mode", "topology",
                              {"global", "topology"}),
            1u);
}

TEST(ParseChoiceFlag, RejectsUnknownSpellingsListingTheChoices) {
  // Exact matches only: no prefixes, no case folding, no whitespace.
  EXPECT_SIM_ERROR((void)parse_choice_flag("--lookahead-mode", "sideways",
                                           {"global", "topology"}),
                   "expected one of global topology");
  EXPECT_SIM_ERROR((void)parse_choice_flag("--lookahead-mode", "topo",
                                           {"global", "topology"}),
                   "expected one of");
  EXPECT_SIM_ERROR((void)parse_choice_flag("--lookahead-mode", "Global",
                                           {"global", "topology"}),
                   "expected one of");
  EXPECT_SIM_ERROR((void)parse_choice_flag("--lookahead-mode", "",
                                           {"global", "topology"}),
                   "expected one of");
}

// ---- SweepCli end to end -------------------------------------------------

/// Build a mutable argv for SweepCli::parse.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(const_cast<char*>("bench"));
    for (std::string& s : storage) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(SweepCliParse, AcceptsValidNumericFlags) {
  Argv a({"-j", "4", "--repeat", "3", "--seed", "0xdead", "--run-timeout",
          "1.5", "--fault-timer-drop", "0.25", "--record-trace",
          "--lookahead-mode", "topology", "--max-horizon-windows", "128",
          "extra"});
  const SweepCli cli = SweepCli::parse(a.argc(), a.argv());
  EXPECT_EQ(cli.threads, 4u);
  EXPECT_EQ(cli.repeat, 3);
  EXPECT_EQ(cli.lookahead_mode, sim::LookaheadMode::kTopology);
  EXPECT_EQ(cli.max_horizon_windows, 128u);
  ASSERT_TRUE(cli.root_seed.has_value());
  EXPECT_EQ(*cli.root_seed, 0xdeadu);
  EXPECT_DOUBLE_EQ(cli.run_timeout_sec, 1.5);
  ASSERT_EQ(cli.fault_overrides.size(), 1u);
  EXPECT_EQ(cli.fault_overrides[0].first, "timer-drop");
  EXPECT_TRUE(cli.record_trace);
  ASSERT_EQ(cli.positional.size(), 1u);
  EXPECT_EQ(cli.positional[0], "extra");
}

TEST(SweepCliParse, RemovedExecutionFlagsExitWithCode2) {
  // Flags of the deleted fork, shard/merge and dispatch paths land in the
  // positional residue; a driver that reads no positionals must reject
  // them instead of silently running the whole grid and exiting 0.
  const std::vector<std::vector<std::string>> removed = {
      {"--backend", "fork"},
      {"--shard", "0/2", "--partial", "p.json"},
      {"--merge", "x"},
      {"--dispatch"},
  };
  for (const auto& args : removed) {
    Argv a(args);
    const SweepCli cli = SweepCli::parse(a.argc(), a.argv());
    EXPECT_EXIT(cli.expect_positionals(0), ::testing::ExitedWithCode(2),
                "unrecognized argument: " + args.front())
        << "args: " << args.front();
  }
}

TEST(SweepCliParse, ExpectPositionalsKeepsNamesAndRejectsLeftoverFlags) {
  {
    Argv a({"-j2", "small"});
    const SweepCli cli = SweepCli::parse(a.argc(), a.argv());
    cli.expect_positionals(1);  // a name within the bound: returns
    ASSERT_EQ(cli.positional.size(), 1u);
    EXPECT_EQ(cli.positional[0], "small");
    EXPECT_EXIT(cli.expect_positionals(0), ::testing::ExitedWithCode(2),
                "unrecognized argument: small");
  }
  {
    Argv a({"small", "--shard"});
    const SweepCli cli = SweepCli::parse(a.argc(), a.argv());
    EXPECT_EXIT(cli.expect_positionals(2), ::testing::ExitedWithCode(2),
                "unrecognized argument: --shard");
  }
}

TEST(SweepCliParse, BadNumbersExitWithCode2NotZero) {
  // The bug this PR fixes: `-j garbage` used to strtoul to 0 and run the
  // sweep single-threaded as if nothing happened.
  struct Case {
    std::vector<std::string> args;
    const char* why;
  };
  const Case cases[] = {
      {{"-j", "garbage"}, "not a valid integer"},
      {{"-j4x"}, "not a valid integer"},
      {{"--repeat", "-2"}, "non-negative"},
      {{"--seed", "0xzz"}, "not a valid integer"},
      {{"--seed", "99999999999999999999999"}, "out of range"},
      {{"--max-failures", ""}, "empty value"},
      {{"--run-timeout", "fast"}, "not a valid number"},
      {{"--fault-timer-drop", "-0.5"}, "negative"},
      {{"--lookahead-mode", "sideways"}, "expected one of global topology"},
      {{"--lookahead-mode", "topo"}, "expected one of"},
      {{"--max-horizon-windows", "lots"}, "not a valid integer"},
      {{"--max-horizon-windows", "-1"}, "non-negative"},
  };
  for (const Case& c : cases) {
    Argv a(c.args);
    EXPECT_EXIT((void)SweepCli::parse(a.argc(), a.argv()),
                ::testing::ExitedWithCode(2), c.why)
        << "args: " << c.args.front();
  }
}

// ---- bench_cluster flags -------------------------------------------------
// The cluster bench parses its own flags out of the sweep CLI's
// positional residue with the same strict helpers; these pin down the
// (flag, bound) pairs it uses so garbage can't silently reshape the
// cluster under test.

TEST(ClusterFlags, AcceptsSaneValues) {
  EXPECT_EQ(parse_u64_flag("--hosts", "8", 64), 8u);
  EXPECT_EQ(parse_u64_flag("--vms-per-host", "32", 256), 32u);
  EXPECT_EQ(parse_u64_flag("--migration-blackout-us", "500", 1'000'000), 500u);
  EXPECT_EQ(parse_u64_flag("--migration-dirty-mcycles", "2", 1'000'000), 2u);
  EXPECT_DOUBLE_EQ(parse_double_flag("--overcommit", "2.5", 0.01), 2.5);
  EXPECT_DOUBLE_EQ(parse_double_flag("--rebalance-period", "0", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(parse_double_flag("--duration-ms", "100", 0.001), 100.0);
}

TEST(ClusterFlags, RejectsGarbageAndOutOfRange) {
  EXPECT_SIM_ERROR((void)parse_u64_flag("--hosts", "lots", 64),
                   "not a valid integer");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--hosts", "65", 64), "out of range");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--vms-per-host", "257", 256),
                   "out of range");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--vms-per-host", "-4", 256),
                   "non-negative");
  EXPECT_SIM_ERROR((void)parse_u64_flag("--migration-blackout-us", "1e6",
                                        1'000'000),
                   "not a valid integer");
  EXPECT_SIM_ERROR((void)parse_double_flag("--overcommit", "fast", 0.01),
                   "not a valid number");
  EXPECT_SIM_ERROR((void)parse_double_flag("--overcommit", "-1", 0.01),
                   "negative");
  EXPECT_SIM_ERROR((void)parse_double_flag("--rebalance-period", "", 0.0),
                   "empty value");
  EXPECT_SIM_ERROR((void)parse_double_flag("--duration-ms", "10ms", 0.001),
                   "not a valid number");
}

}  // namespace
}  // namespace paratick::core
