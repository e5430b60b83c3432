#include "tools/arg_parser.h"

#include <gtest/gtest.h>

#include "tools/engine_flags.h"

namespace bccs {
namespace {

TEST(ArgParserTest, EqualsSyntax) {
  ArgParser p = ArgParser::Parse({"--graph=g.txt", "--k1=4", "--b=2.5"});
  EXPECT_EQ(p.GetStringOr("graph", ""), "g.txt");
  EXPECT_EQ(p.GetIntOr("k1", 0), 4);
  EXPECT_DOUBLE_EQ(p.GetDoubleOr("b", 0), 2.5);
}

TEST(ArgParserTest, SpaceSyntax) {
  ArgParser p = ArgParser::Parse({"--graph", "g.txt", "--k1", "4"});
  EXPECT_EQ(p.GetStringOr("graph", ""), "g.txt");
  EXPECT_EQ(p.GetIntOr("k1", 0), 4);
}

TEST(ArgParserTest, BareBooleanFlags) {
  ArgParser p = ArgParser::Parse({"--verify", "--method", "lp"});
  EXPECT_TRUE(p.Has("verify"));
  EXPECT_EQ(p.GetStringOr("method", ""), "lp");
  EXPECT_FALSE(p.Has("missing"));
}

TEST(ArgParserTest, TrailingBareFlag) {
  ArgParser p = ArgParser::Parse({"--graph", "g.txt", "--verbose"});
  EXPECT_TRUE(p.Has("verbose"));
  EXPECT_EQ(p.GetStringOr("verbose", "x"), "");
}

TEST(ArgParserTest, Positional) {
  ArgParser p = ArgParser::Parse({"input.txt", "--k1=3", "output.txt"});
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"input.txt", "output.txt"}));
}

TEST(ArgParserTest, MalformedNumbers) {
  ArgParser p = ArgParser::Parse({"--k1=abc", "--b=1.2.3", "--empty="});
  EXPECT_FALSE(p.GetInt("k1").has_value());
  EXPECT_FALSE(p.GetDouble("b").has_value());
  EXPECT_FALSE(p.GetInt("empty").has_value());
  EXPECT_EQ(p.GetIntOr("k1", 7), 7);
}

TEST(ArgParserTest, NegativeNumbers) {
  ArgParser p = ArgParser::Parse({"--offset=-5"});
  EXPECT_EQ(p.GetIntOr("offset", 0), -5);
}

TEST(ArgParserTest, UnknownFlags) {
  ArgParser p = ArgParser::Parse({"--graph=g", "--typo=1"});
  auto unknown = p.UnknownFlags({"graph", "k1"});
  EXPECT_EQ(unknown, (std::vector<std::string>{"typo"}));
  EXPECT_TRUE(p.UnknownFlags({"graph", "typo"}).empty());
}

TEST(ArgParserTest, ArgcArgvEntry) {
  const char* argv[] = {"prog", "--k1=2", "file"};
  ArgParser p = ArgParser::Parse(3, argv);
  EXPECT_EQ(p.GetIntOr("k1", 0), 2);
  EXPECT_EQ(p.positional().size(), 1u);
}

TEST(ArgParserTest, LastValueWins) {
  ArgParser p = ArgParser::Parse({"--k1=2", "--k1=5"});
  EXPECT_EQ(p.GetIntOr("k1", 0), 5);
}

// --------------------------------------------------------------------------
// Engine flags shared by bccs_query and bccs_serve.
// --------------------------------------------------------------------------

TEST(EngineFlagsTest, DefaultsAndValidValues) {
  EngineFlags f;
  std::string error;
  ASSERT_TRUE(ParseEngineFlags(ArgParser::Parse({"--graph", "g.txt"}), &f, &error)) << error;
  EXPECT_EQ(f.method, QueryMethod::kLpBcc);
  EXPECT_EQ(f.params.k1, 0u);
  EXPECT_EQ(f.params.b, 1u);
  EXPECT_EQ(f.deadline_seconds, 0.0);
  EXPECT_FALSE(f.approx.enabled);

  ASSERT_TRUE(ParseEngineFlags(
      ArgParser::Parse({"--method", "online", "--k1", "4294967295", "--k2", "3", "--b", "2",
                        "--deadline-ms", "250", "--approx-samples", "512",
                        "--approx-threshold", "100", "--cache-bytes", "0"}),
      &f, &error))
      << error;
  EXPECT_EQ(f.method, QueryMethod::kOnlineBcc);
  EXPECT_EQ(f.params.k1, 4294967295u);
  EXPECT_EQ(f.params.k2, 3u);
  EXPECT_EQ(f.params.b, 2u);
  EXPECT_DOUBLE_EQ(f.deadline_seconds, 0.25);
  EXPECT_TRUE(f.approx.enabled);
  EXPECT_EQ(f.approx.samples, 512u);
  EXPECT_EQ(f.approx.threshold, 100u);

  const QueryRequest proto = f.Prototype();
  EXPECT_EQ(proto.method, QueryMethod::kOnlineBcc);
  EXPECT_EQ(proto.params.k2, 3u);
  EXPECT_DOUBLE_EQ(proto.deadline_seconds, 0.25);
  ServeOptions so;
  f.ApplyTo(&so);
  for (const SearchOptions* s : {&so.online, &so.lp, &so.mbcc, &so.l2p.search}) {
    EXPECT_TRUE(s->approx.enabled);
    EXPECT_EQ(s->approx.samples, 512u);
  }
}

// Every bad value is rejected with a reason naming the flag — including the
// 2^32 parameters that used to narrow silently (--k1 4294967297 ran as 1).
TEST(EngineFlagsTest, RejectsBadValuesWithReason) {
  const std::vector<std::vector<std::string>> bad = {
      {"--method", "bogus"},          {"--method"},
      {"--k1", "-2"},                 {"--k1", "4294967296"},
      {"--k1", "4294967297"},         {"--k2", "xyz"},
      {"--k2", "1.5"},                {"--k1", "+3"},
      {"--b", "0"},                   {"--b", "-1"},
      {"--b", "abc"},                 {"--b", "99999999999999999999"},
      {"--deadline-ms", "0"},         {"--deadline-ms", "-3"},
      {"--deadline-ms", "abc"},       {"--deadline-ms", "99999999999999999"},
      {"--approx-samples", "0"},      {"--approx-samples", "xyz"},
      {"--approx-threshold", "0"},    {"--cache-bytes", "-5"},
      {"--cache-bytes", "2.5"},       {"--cache-bytes"},
  };
  for (const auto& args : bad) {
    EngineFlags f;
    std::string error;
    EXPECT_FALSE(ParseEngineFlags(ArgParser::Parse(args), &f, &error)) << args[0];
    const std::string flag = args[0];
    if (flag == "--method") {
      EXPECT_NE(error.find("valid methods: online, lp, l2p"), std::string::npos) << error;
    } else {
      EXPECT_NE(error.find(flag + " must be an integer"), std::string::npos) << error;
    }
  }
}

TEST(EngineFlagsTest, VertexIdsMustFitAndBeCleanIntegers) {
  VertexId v = 0;
  EXPECT_TRUE(ParseVertexId("0", &v));
  EXPECT_TRUE(ParseVertexId("4294967294", &v));
  EXPECT_EQ(v, 4294967294u);
  for (const char* bad : {"4294967295", "4294967296", "-1", "+1", " 1", "1x", "", "a"}) {
    EXPECT_FALSE(ParseVertexId(bad, &v)) << "'" << bad << "'";
  }

  std::vector<VertexId> ids;
  std::string error;
  ASSERT_TRUE(ParseVertexIdList("3,17,,42", &ids, &error)) << error;
  EXPECT_EQ(ids, (std::vector<VertexId>{3, 17, 42}));
  EXPECT_FALSE(ParseVertexIdList("a,b", &ids, &error));
  EXPECT_NE(error.find("'a' is not a vertex id"), std::string::npos) << error;
  EXPECT_FALSE(ParseVertexIdList("4294967296,12", &ids, &error));
  EXPECT_NE(error.find("'4294967296' is not a vertex id"), std::string::npos) << error;
}

TEST(EngineFlagsTest, LanesAndKnownFlagNames) {
  Lane lane = Lane::kBulk;
  EXPECT_TRUE(ParseLane("i", &lane));
  EXPECT_EQ(lane, Lane::kInteractive);
  EXPECT_TRUE(ParseLane("bulk", &lane));
  EXPECT_EQ(lane, Lane::kBulk);
  EXPECT_FALSE(ParseLane("sideways", &lane));

  ArgParser p = ArgParser::Parse({"--graph=g", "--approx-samples=5", "--cache-bytes=0",
                                  "--no-incremental-butterflies", "--approx-adaptive"});
  EXPECT_EQ(p.UnknownFlags(WithEngineFlags({"graph"})),
            (std::vector<std::string>{"approx-adaptive", "no-incremental-butterflies"}));
}

}  // namespace
}  // namespace bccs
