// The session-based simulation service, driven in-process through the
// same handle_line entry point the asicpp-serve daemon uses: protocol
// round-trips, session lifecycle, poke/probe/trace semantics, checkpoint
// and fork resumption, and N concurrent sessions on one cached artifact
// producing traces bit-identical to N solo runs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/pipeline.h"
#include "service/json.h"
#include "service/linebuf.h"
#include "service/service.h"
#include "verify/gen.h"

namespace asicpp {
namespace {

using service::Json;
using service::LineBuffer;
using service::Service;

/// Send one request object and parse the response (every response must be
/// valid single-line JSON carrying "ok").
Json rpc(Service& svc, const std::string& line) {
  const std::string reply = svc.handle_line(line);
  Json out;
  std::string err;
  EXPECT_TRUE(Json::parse(reply, &out, &err)) << reply << ": " << err;
  EXPECT_NE(out.get("ok"), nullptr) << reply;
  return out;
}

Json ok_rpc(Service& svc, const std::string& line) {
  Json r = rpc(svc, line);
  EXPECT_TRUE(r.get_bool("ok")) << r.dump() << " for " << line;
  return r;
}

/// Probe rows of a trace response as doubles.
std::vector<std::vector<double>> rows_of(const Json& trace) {
  std::vector<std::vector<double>> rows;
  const Json* arr = trace.get("rows");
  if (arr == nullptr) return rows;
  for (const Json& row : arr->items()) {
    std::vector<double> r;
    for (const Json& v : row.items()) r.push_back(v.as_number());
    rows.push_back(std::move(r));
  }
  return rows;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') out += "\\n";
    else if (c == '"') out += "\\\"";
    else if (c == '\\') out += "\\\\";
    else out += c;
  }
  return out;
}

// --- json unit tests --------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"op":"open","engine":"jit","watch":["x","y"],"n":-2.5,)"
      R"("flag":true,"nothing":null})";
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(text, &j, &err)) << err;
  EXPECT_EQ(j.get_string("op"), "open");
  EXPECT_EQ(j.get_number("n"), -2.5);
  EXPECT_TRUE(j.get_bool("flag"));
  ASSERT_NE(j.get("nothing"), nullptr);
  EXPECT_TRUE(j.get("nothing")->is_null());
  ASSERT_NE(j.get("watch"), nullptr);
  EXPECT_EQ(j.get("watch")->items().size(), 2u);
  // Re-parse the dump: the value survives a full round trip.
  Json again;
  ASSERT_TRUE(Json::parse(j.dump(), &again, &err)) << err;
  EXPECT_EQ(again.dump(), j.dump());
}

TEST(Json, ParseErrorsArePositioned) {
  Json j;
  std::string err;
  EXPECT_FALSE(Json::parse("{\"a\":}", &j, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(Json::parse("", &j, &err));
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &j, &err));
}

TEST(Json, NestingBeyondMaxDepthIsAParseError) {
  const auto arrays = [](int d) { return std::string(d, '[') + std::string(d, ']'); };
  const auto objects = [](int d) {
    std::string s;
    for (int i = 0; i < d; ++i) s += "{\"a\":";
    return s + "1" + std::string(d, '}');
  };
  Json j;
  std::string err;
  EXPECT_TRUE(Json::parse(arrays(Json::kMaxDepth), &j, &err)) << err;
  EXPECT_TRUE(Json::parse(objects(Json::kMaxDepth), &j, &err)) << err;
  EXPECT_FALSE(Json::parse(arrays(Json::kMaxDepth + 1), &j, &err));
  EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
  EXPECT_FALSE(Json::parse(objects(Json::kMaxDepth + 1), &j, &err));
  EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
}

TEST(Json, StringEscapesRoundTrip) {
  Json j = Json::object();
  j.set("s", Json::string("a\"b\\c\nd\te"));
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(j.dump(), &back, &err)) << err;
  EXPECT_EQ(back.get_string("s"), "a\"b\\c\nd\te");
}

TEST(Json, NumberTextIsPrintf17g) {
  // dump() writes numbers through std::to_chars; the text must stay what
  // printf's %.17g wrote, byte for byte, on every finite double.
  std::vector<double> values = {-0.0, 4.9e-324, 1e16, 1e17,
                                std::numeric_limits<double>::max(), 0.1};
  std::mt19937_64 rng(19);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
  }
  for (const double d : values) {
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", d);
    ASSERT_EQ(Json::number(d).dump(), want);
  }
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json::number(-std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json::number(std::nan("")).dump(), "null");
}

TEST(Json, NumberSpellingsReadAsBefore) {
  // Numbers read through std::from_chars, with strtod behind it for what
  // from_chars refuses: each spelling keeps the bits strtod gave it.
  for (const char* text :
       {"0", "-0", "+1", ".5", "5.", "01", "1E5", "4.9e-324", "2.4e-324", "1e400",
        "-1e400", "1e-400", "1.7976931348623159e308", "inf", "-infinity",
        "0.30000000000000004"}) {
    Json j;
    std::string err;
    ASSERT_TRUE(Json::parse(text, &j, &err)) << text << ": " << err;
    ASSERT_TRUE(j.is_number()) << text;
    const double want = std::strtod(text, nullptr);
    const double got = j.as_number();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << text;
  }
  // A NaN spelling reads as a NaN. A bare "nan" never reached the number
  // reader (a leading 'n' is the null keyword) and is still refused.
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse("-nan", &j, &err)) << err;
  EXPECT_TRUE(std::isnan(j.as_number()));
  EXPECT_FALSE(Json::parse("nan", &j, &err));
  // strtod reads hexadecimal; JSON has no such spelling.
  for (const char* text : {"0x10", "-0x1p3", "[0x10]", "+0X1"}) {
    EXPECT_FALSE(Json::parse(text, &j, &err)) << text;
    EXPECT_NE(err.find("invalid number"), std::string::npos) << text << ": " << err;
  }
}

TEST(Json, RepeatedKeyKeepsFirstPositionAndLastValue) {
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(R"({"a":1,"b":2,"a":3})", &j, &err)) << err;
  EXPECT_EQ(j.dump(), R"({"a":3,"b":2})");
  // Every key repeated: each takes its last value at its first position.
  std::string text = "{";
  for (int i = 0; i < 40; ++i)
    text += "\"k" + std::to_string(i % 20) + "\":" + std::to_string(i) + ",";
  text.back() = '}';
  ASSERT_TRUE(Json::parse(text, &j, &err)) << err;
  std::string want = "{";
  for (int i = 0; i < 20; ++i)
    want += "\"k" + std::to_string(i) + "\":" + std::to_string(i + 20) + ",";
  want.back() = '}';
  EXPECT_EQ(j.dump(), want);
}

TEST(Json, WideObjectParsesInUnderTwoSeconds) {
  // 80,000 keys fit one request line (~870 KB). Resolving repeated keys
  // pairwise, as each member arrived, took ~24 s on this line.
  std::string text = "{";
  for (int i = 0; i < 80000; ++i)
    text += "\"k" + std::to_string(i) + "\":" + std::to_string(i % 10) + ",";
  text.back() = '}';
  ASSERT_LT(text.size(), service::kMaxRequestLine);
  const auto t0 = std::chrono::steady_clock::now();
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(text, &j, &err)) << err;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(secs, 2.0);
  EXPECT_EQ(j.get_number("k79999"), 9.0);
  EXPECT_EQ(j.dump(), text);
}

// --- protocol basics --------------------------------------------------------

TEST(Service, PingListsEnginesAndDesigns) {
  Service svc;
  Json r = ok_rpc(svc, R"({"op":"ping"})");
  const Json* engines = r.get("engines");
  ASSERT_NE(engines, nullptr);
  EXPECT_GE(engines->items().size(), 7u);
  const Json* designs = r.get("designs");
  ASSERT_NE(designs, nullptr);
  EXPECT_EQ(designs->items().size(), 2u);
}

TEST(Service, MalformedAndUnknownRequestsFailSoftly) {
  Service svc;
  Json r = rpc(svc, "this is not json");
  EXPECT_FALSE(r.get_bool("ok", true));
  r = rpc(svc, R"({"op":"frobnicate"})");
  EXPECT_FALSE(r.get_bool("ok", true));
  r = rpc(svc, R"({"op":"run","session":"s99","cycles":1})");
  EXPECT_FALSE(r.get_bool("ok", true));
  EXPECT_EQ(svc.session_count(), 0u);
}

TEST(Service, DeeplyNestedLineFailsSoftlyAndServiceSurvives) {
  // One line of 10^6 '[' used to overflow the parser's stack and take the
  // daemon, and every session in it, down.
  Service svc;
  const Json r = rpc(svc, std::string(1000000, '['));
  EXPECT_FALSE(r.get_bool("ok", true));
  EXPECT_NE(r.get_string("error").find("nesting deeper than"), std::string::npos)
      << r.dump();
  ok_rpc(svc, R"({"op":"ping"})");
}

// --- request-line framing (asicpp-serve) -------------------------------------

TEST(LineBuffer, SplitsLinesAcrossReads) {
  LineBuffer lb;
  std::string line;
  const std::string stream = "{\"op\":\"ping\"}\n\nsecond line\nthird";
  for (const char c : stream) lb.append(&c, 1);
  std::vector<std::string> got;
  while (lb.next(line) == LineBuffer::Status::kLine) got.push_back(line);
  EXPECT_EQ(got, (std::vector<std::string>{"{\"op\":\"ping\"}", "", "second line"}));
  EXPECT_EQ(lb.next(line), LineBuffer::Status::kNeedMore);
  lb.append("\n", 1);
  ASSERT_EQ(lb.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "third");
}

TEST(LineBuffer, LineOverTheCapIsRefusedWithOrWithoutItsNewline) {
  const std::string at_cap(service::kMaxRequestLine, 'x');
  const std::string over_cap = at_cap + 'x';
  std::string line;
  LineBuffer exact;
  exact.append(at_cap.data(), at_cap.size());
  exact.append("\n", 1);
  ASSERT_EQ(exact.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, at_cap);

  LineBuffer whole;
  whole.append(over_cap.data(), over_cap.size());
  whole.append("\n", 1);
  EXPECT_EQ(whole.next(line), LineBuffer::Status::kTooLong);

  // No newline yet: refused as soon as the pending bytes pass the cap, so
  // the buffer never holds more than the cap plus one read.
  LineBuffer endless;
  endless.append(at_cap.data(), at_cap.size());
  EXPECT_EQ(endless.next(line), LineBuffer::Status::kNeedMore);
  endless.append("x", 1);
  EXPECT_EQ(endless.next(line), LineBuffer::Status::kTooLong);

  // Lines taken before the long one are still delivered.
  LineBuffer mixed;
  mixed.append("ok\n", 3);
  mixed.append(over_cap.data(), over_cap.size());
  ASSERT_EQ(mixed.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "ok");
  EXPECT_EQ(mixed.next(line), LineBuffer::Status::kTooLong);
}

TEST(LineBuffer, ByteAtATimeLongLineIsScannedOnce) {
  // A line just under the cap, one byte per read: each read scans only the
  // new byte. Rescanning the whole buffer per read, as the daemon once
  // did, costs ~10^11 byte compares here.
  LineBuffer lb;
  std::string line;
  const std::string body(service::kMaxRequestLine, 'x');
  for (const char c : body) {
    lb.append(&c, 1);
    ASSERT_EQ(lb.next(line), LineBuffer::Status::kNeedMore);
  }
  lb.append("\n", 1);
  ASSERT_EQ(lb.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line.size(), service::kMaxRequestLine);
}

TEST(LineBuffer, TooLongReplyCarriesStableCode) {
  Json r;
  std::string err;
  ASSERT_TRUE(Json::parse(service::line_too_long_reply(), &r, &err)) << err;
  EXPECT_FALSE(r.get_bool("ok", true));
  EXPECT_EQ(r.get_string("code"), "SVC-001");
  EXPECT_NE(r.get_string("error").find(std::to_string(service::kMaxRequestLine)),
            std::string::npos);
}

TEST(Service, QuickstartPokeRunTrace) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  ASSERT_FALSE(sid.empty());
  EXPECT_EQ(svc.session_count(), 1u);

  ok_rpc(svc, R"({"op":"poke","session":")" + sid +
                  R"(","net":"x","value":1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":4})");
  Json trace = ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                               R"(","since":0})");
  const auto rows = rows_of(trace);
  ASSERT_EQ(rows.size(), 4u);
  // 2-tap moving average of a constant 1.0: first cycle averages the zero
  // history, then the output settles at 1.0.
  ASSERT_EQ(rows[0].size(), 2u);  // probes x, y
  EXPECT_EQ(rows[0][1], 0.5);
  EXPECT_EQ(rows[1][1], 1.0);
  EXPECT_EQ(rows[3][1], 1.0);

  // Delta read: since=2 returns only the last two rows.
  Json delta = ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                               R"(","since":2})");
  EXPECT_EQ(rows_of(delta).size(), 2u);
  EXPECT_EQ(delta.get_number("from"), 2.0);

  ok_rpc(svc, R"({"op":"close","session":")" + sid + R"("})");
  EXPECT_EQ(svc.session_count(), 0u);
}

TEST(Service, ProbeReadsLastValue) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"iterative","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  ok_rpc(svc, R"({"op":"poke","session":")" + sid +
                  R"(","net":"x","value":2.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":8})");
  Json p = ok_rpc(svc, R"({"op":"probe","session":")" + sid +
                           R"(","net":"y"})");
  EXPECT_EQ(p.get_number("value"), 2.0);
}

TEST(Service, UnknownNetProbeFailsSoftly) {
  // The compiled engine resolves net names eagerly; an unknown probe is a
  // request error, not a dead session.
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  Json bad = rpc(svc, R"({"op":"probe","session":")" + sid +
                          R"(","net":"no_such_net"})");
  EXPECT_FALSE(bad.get_bool("ok", true));
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":1})");
  EXPECT_EQ(svc.session_count(), 1u);
}

TEST(Service, QuickstartTraceReplyText) {
  // The trace reply byte for byte, as CI's service smoke greps it.
  Service svc;
  const std::string sid = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})")
                              .get_string("session");
  ok_rpc(svc, R"({"op":"poke","session":")" + sid + R"(","net":"x","value":1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":6})");
  ok_rpc(svc, R"({"op":"poke","session":")" + sid + R"(","net":"x","value":-0.3})");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":2})");
  EXPECT_EQ(svc.handle_line(R"({"op":"trace","session":")" + sid + R"(","since":0})"),
            R"({"ok":true,"from":0,"probes":["x","y"],"rows":[[1,0.5],[1,1],[1,1],)"
            R"([1,1],[1,1],[1,1],[-0.29999999999999999,0.349609375],)"
            R"([-0.29999999999999999,-0.30078125]],"cycle":8})");
}

TEST(Service, CountFieldOutOfRangeIsRefusedWithSvc002) {
  // A count must be a whole number from 0 to its cap. "cycles":-1 once
  // became 2^64-1 cycles and ran until memory ran out.
  Service svc;
  const std::string sid = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})")
                              .get_string("session");
  const auto refused = [&](const std::string& line, const std::string& field) {
    const std::string reply = svc.handle_line(line);
    Json r;
    std::string err;
    ASSERT_TRUE(Json::parse(reply, &r, &err)) << reply;
    EXPECT_FALSE(r.get_bool("ok", true)) << line;
    EXPECT_EQ(r.get_string("code"), "SVC-002") << line;
    EXPECT_NE(r.get_string("error").find("'" + field + "'"), std::string::npos)
        << reply;
    EXPECT_EQ(reply.find('\n'), std::string::npos);
  };
  const std::string over = std::to_string(service::kMaxRunCycles + 1);
  for (const std::string& bad : {std::string("-1"), std::string("2.5"),
                                 std::string("1e400"), over, std::string("\"4\"")}) {
    refused(R"({"op":"run","session":")" + sid + R"(","cycles":)" + bad + "}",
            "cycles");
    const std::string since = bad == over ? "18014398509481984" : bad;  // 2^54
    refused(R"({"op":"trace","session":")" + sid + R"(","since":)" + since + "}",
            "since");
    const std::string lanes =
        bad == over ? std::to_string(service::kMaxOpenLanes + 1) : bad;
    refused(R"({"op":"open","engine":"compiled","design":"quickstart","lanes":)" +
                lanes + "}",
            "lanes");
  }
  // Nothing ran and nothing opened; the session still runs.
  EXPECT_EQ(svc.session_count(), 1u);
  Json trace = ok_rpc(svc, R"({"op":"trace","session":")" + sid + R"("})");
  EXPECT_EQ(trace.get_number("cycle"), 0.0);
  EXPECT_EQ(ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":4})")
                .get_number("cycle"),
            4.0);
  // The caps themselves are accepted.
  EXPECT_EQ(ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                            R"(","since":9007199254740992})")
                .get_number("from"),
            4.0);
  // A field the protocol does not read is ignored, whatever its value.
  EXPECT_EQ(ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":1,"threads":-1})")
                .get_number("cycle"),
            5.0);
}

TEST(Service, OpenRefusesUnknownWatchNetWithSvc003) {
  // The watch list is checked before the session exists. An unknown name
  // used to open a session whose every run failed in the probe after the
  // engine had stepped (compiled, jit), or that added the net to the live
  // scheduler, so the session's fork failed with CKPT-003 (iterative,
  // levelized).
  const std::string store = ::testing::TempDir() + "asicpp_svc003_" + std::to_string(getpid());
  Service svc;
  for (const char* engine : {"iterative", "levelized", "compiled", "jit"}) {
    SCOPED_TRACE(engine);
    const std::string head = std::string(R"({"op":"open","engine":")") + engine +
                             R"(","design":"quickstart","store_dir":")" + store + R"(",)";
    const std::string reply = svc.handle_line(head + R"("watch":["y","no_such_net"]})");
    Json bad;
    std::string err;
    ASSERT_TRUE(Json::parse(reply, &bad, &err)) << reply;
    EXPECT_FALSE(bad.get_bool("ok", true)) << reply;
    EXPECT_EQ(bad.get_string("code"), "SVC-003") << reply;
    EXPECT_NE(bad.get_string("error").find("'no_such_net'"), std::string::npos) << reply;
    EXPECT_EQ(reply.find("session"), std::string::npos) << reply;
    EXPECT_EQ(svc.session_count(), 0u);

    // Known names open a session that runs, checkpoints and forks.
    const std::string sid = ok_rpc(svc, head + R"("watch":["y","x"]})").get_string("session");
    ok_rpc(svc, R"({"op":"poke","session":")" + sid + R"(","net":"x","value":1.0})");
    EXPECT_EQ(ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":3})")
                  .get_number("cycle"),
              3.0);
    // A cold jit open builds native code in the background; run until it
    // landed, so the fork hits the store and no build still writes into
    // it when the store is removed below.
    const auto t0 = std::chrono::steady_clock::now();
    while (std::string(engine) == "jit" &&
           !ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":1})")
                .get_bool("native")) {
      ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(120))
          << "the jit session never reported native:true";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ok_rpc(svc, R"({"op":"checkpoint","session":")" + sid + R"(","name":"c"})");
    const std::string child =
        ok_rpc(svc, R"({"op":"fork","session":")" + sid + R"(","from":"c"})")
            .get_string("session");
    EXPECT_EQ(rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + child + R"("})")),
              rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + sid + R"("})")));
    ok_rpc(svc, R"({"op":"close","session":")" + child + R"("})");
    ok_rpc(svc, R"({"op":"close","session":")" + sid + R"("})");
  }
  std::filesystem::remove_all(store);
}

TEST(Service, InterpretedUnknownNetFailsWithoutJoiningTheScheduler) {
  // probe and poke look a net up without creating it, so a session that
  // asked for an unknown net still checkpoints and forks.
  for (const char* engine : {"iterative", "levelized"}) {
    SCOPED_TRACE(engine);
    Service svc;
    const std::string sid =
        ok_rpc(svc, std::string(R"({"op":"open","engine":")") + engine +
                        R"(","design":"quickstart"})")
            .get_string("session");
    Json probe = rpc(svc, R"({"op":"probe","session":")" + sid + R"(","net":"no_such_net"})");
    EXPECT_FALSE(probe.get_bool("ok", true));
    EXPECT_NE(probe.get_string("error").find("'no_such_net'"), std::string::npos);
    Json poke = rpc(svc, R"({"op":"poke","session":")" + sid +
                             R"(","net":"no_such_net","value":1.0})");
    EXPECT_FALSE(poke.get_bool("ok", true));
    ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":2})");
    ok_rpc(svc, R"({"op":"checkpoint","session":")" + sid + R"(","name":"c"})");
    EXPECT_EQ(ok_rpc(svc, R"({"op":"fork","session":")" + sid + R"(","from":"c"})")
                  .get_number("cycle"),
              2.0);
  }
}

TEST(Service, SessionRowsAreCappedAcrossRuns) {
  // Each run is capped at kMaxRunCycles, and a session's runs together at
  // kMaxSessionRows: the run that would pass it is refused and runs nothing.
  static_assert(service::kMaxSessionRows % service::kMaxRunCycles == 0);
  Service svc;
  const std::string sid =
      ok_rpc(svc, R"({"op":"open","engine":"compiled","design":"quickstart","watch":["y"]})")
          .get_string("session");
  const std::string full = std::to_string(service::kMaxRunCycles);
  for (std::uint64_t n = 0; n < service::kMaxSessionRows; n += service::kMaxRunCycles)
    ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":)" + full + "}");
  const std::string reply =
      svc.handle_line(R"({"op":"run","session":")" + sid + R"(","cycles":1})");
  Json r;
  std::string err;
  ASSERT_TRUE(Json::parse(reply, &r, &err)) << reply;
  EXPECT_FALSE(r.get_bool("ok", true)) << reply;
  EXPECT_EQ(r.get_string("code"), "SVC-002") << reply;
  EXPECT_NE(r.get_string("error").find("'cycles'"), std::string::npos) << reply;
  // Nothing ran; a run of no cycles still fits, and the history reads back.
  const double cap = static_cast<double>(service::kMaxSessionRows);
  EXPECT_EQ(ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":0})")
                .get_number("cycle"),
            cap);
  Json tail = ok_rpc(svc, R"({"op":"trace","session":")" + sid + R"(","since":)" +
                              std::to_string(service::kMaxSessionRows - 2) + "}");
  EXPECT_EQ(rows_of(tail).size(), 2u);
  EXPECT_EQ(tail.get_number("cycle"), cap);
}

TEST(Service, SessionCapRefusesOpenAndForkWithSvc004) {
  Service svc;
  const std::string open = R"({"op":"open","engine":"iterative","design":"quickstart"})";
  std::vector<std::string> sids;
  for (std::size_t n = 0; n < service::kMaxSessions; ++n)
    sids.push_back(ok_rpc(svc, open).get_string("session"));
  ok_rpc(svc, R"({"op":"checkpoint","session":")" + sids[0] + R"(","name":"c"})");
  for (const std::string& line :
       {open, R"({"op":"fork","session":")" + sids[0] + R"(","from":"c"})"}) {
    Json r = rpc(svc, line);
    EXPECT_FALSE(r.get_bool("ok", true)) << r.dump();
    EXPECT_EQ(r.get_string("code"), "SVC-004") << r.dump();
    EXPECT_EQ(r.get("session"), nullptr) << r.dump();
    EXPECT_EQ(svc.session_count(), service::kMaxSessions);
  }
  // A failed open gives its place back; a close frees one.
  EXPECT_FALSE(rpc(svc, R"({"op":"open","design":"no_such_design"})").get_bool("ok", true));
  ok_rpc(svc, R"({"op":"close","session":")" + sids.back() + R"("})");
  ok_rpc(svc, R"({"op":"fork","session":")" + sids[0] + R"(","from":"c"})");
  EXPECT_EQ(rpc(svc, open).get_string("code"), "SVC-004");
  EXPECT_EQ(svc.session_count(), service::kMaxSessions);
}

TEST(Service, CheckpointCapRefusesNewNamesWithSvc004) {
  Service svc;
  const std::string sid =
      ok_rpc(svc, R"({"op":"open","engine":"compiled","design":"quickstart"})")
          .get_string("session");
  const auto checkpoint = [&](std::size_t k) {
    return rpc(svc, R"({"op":"checkpoint","session":")" + sid + R"(","name":"c)" +
                        std::to_string(k) + R"("})");
  };
  for (std::size_t k = 0; k < service::kMaxCheckpoints; ++k)
    EXPECT_TRUE(checkpoint(k).get_bool("ok")) << k;
  Json r = checkpoint(service::kMaxCheckpoints);
  EXPECT_FALSE(r.get_bool("ok", true)) << r.dump();
  EXPECT_EQ(r.get_string("code"), "SVC-004") << r.dump();
  // The refused name was not kept; an existing name is still overwritten.
  EXPECT_FALSE(rpc(svc, R"({"op":"fork","session":")" + sid + R"(","from":"c)" +
                            std::to_string(service::kMaxCheckpoints) + R"("})")
                   .get_bool("ok", true));
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":5})");
  EXPECT_EQ(checkpoint(0).get_number("cycle"), 5.0);
  EXPECT_EQ(ok_rpc(svc, R"({"op":"fork","session":")" + sid + R"(","from":"c0"})")
                .get_number("cycle"),
            5.0);
}

// --- spec-based sessions and trace parity -----------------------------------

/// A session opened from spec text must produce the exact trace the
/// engine's own trace() loop yields for the same spec.
TEST(Service, SpecSessionMatchesDirectTrace) {
  const verify::Spec spec = verify::generate(verify::GenConfig{}, 17);
  const std::string text = verify::to_text(spec);

  Service svc;
  Json open = ok_rpc(svc, R"({"op":"open","engine":"compiled","spec":")" +
                              json_escape(text) + R"("})");
  const std::string sid = open.get_string("session");
  ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":)" +
                  std::to_string(spec.cycles) + "}");
  const auto rows =
      rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                              R"(","since":0})"));

  pipeline::CompileRequest req;
  req.spec = spec;
  req.has_spec = true;
  req.engine = "compiled";
  pipeline::CompileResult direct = pipeline::compile(req);
  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_EQ(rows.size(), spec.cycles);
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    direct.instance->cycle();
    for (std::size_t i = 0; i < direct.probes.size(); ++i)
      EXPECT_EQ(rows[c][i], direct.instance->probe(direct.probes[i]))
          << "cycle " << c << " probe " << direct.probes[i];
  }
}

/// N parallel jit sessions opened from one spec share the cached artifact
/// and every one of them produces a trace bit-identical to a solo run.
TEST(Service, ParallelSessionsOnOneCachedArtifactAreBitIdentical) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string store = std::string(tmp != nullptr ? tmp : "/tmp") +
                            "/asicpp_svc_par_store_" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(store);
  setenv("ASICPP_STORE_DIR", store.c_str(), 1);

  // Adapters are outside the jit domain; keep the generated spec inside it.
  verify::GenConfig cfg;
  cfg.allow_adapter = false;
  const verify::Spec spec = verify::generate(cfg, 23);
  const std::string text = verify::to_text(spec);

  // Solo reference run through the pipeline.
  pipeline::CompileRequest req;
  req.spec = spec;
  req.has_spec = true;
  req.engine = "jit";
  // Wait for native code, so the artifact is in the store before the
  // sessions open.
  req.swap_at = 0;
  pipeline::CompileResult solo = pipeline::compile(req);
  ASSERT_TRUE(solo.ok) << solo.error;
  std::vector<std::vector<double>> reference;
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    solo.instance->cycle();
    std::vector<double> row;
    for (const std::string& p : solo.probes)
      row.push_back(solo.instance->probe(p));
    reference.push_back(std::move(row));
  }

  constexpr int kSessions = 4;
  Service svc;
  const std::string open_line =
      R"({"op":"open","engine":"jit","spec":")" + json_escape(text) + R"("})";
  std::vector<std::string> sids(kSessions);
  // char, not bool: vector<bool> packs bits, so concurrent writes to
  // distinct indices would race.
  std::vector<char> warm(kSessions, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      Json open = ok_rpc(svc, open_line);
      sids[i] = open.get_string("session");
      warm[i] = open.get_bool("store_hit") ? 1 : 0;
      ok_rpc(svc, R"({"op":"run","session":")" + sids[i] + R"(","cycles":)" +
                      std::to_string(spec.cycles) + "}");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(svc.session_count(), static_cast<std::size_t>(kSessions));

  for (const std::string& sid : sids) {
    ASSERT_FALSE(sid.empty());
    const auto rows =
        rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + sid +
                                R"(","since":0})"));
    ASSERT_EQ(rows.size(), reference.size()) << sid;
    for (std::size_t c = 0; c < reference.size(); ++c)
      for (std::size_t i = 0; i < reference[c].size(); ++i)
        EXPECT_EQ(rows[c][i], reference[c][i])
            << sid << " cycle " << c << " probe " << i;
  }
  // The solo run warmed the store, so every session was a warm open.
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(warm[i]) << sids[i];
    ok_rpc(svc, R"({"op":"close","session":")" + sids[i] + R"("})");
  }
  unsetenv("ASICPP_STORE_DIR");
  std::filesystem::remove_all(store);
}

// --- checkpoint / fork ------------------------------------------------------

/// A session forked from a named checkpoint replays the parent's remaining
/// cycles byte-identically, and the fork is independent of the parent
/// afterwards.
/// A cold jit session runs the tape from cycle 0 and says so: its replies
/// carry "native", and from the swap on "swap_cycle"; its trace equals a
/// compiled session's across the swap. Other engines report no tier.
TEST(Service, JitSessionReportsItsTierAcrossTheSwap) {
  const std::string store = ::testing::TempDir() + "asicpp_svc_tier_" + std::to_string(getpid());
  std::filesystem::remove_all(store);
  Service svc;
  Json open = ok_rpc(svc, R"({"op":"open","engine":"jit","design":"quickstart","store_dir":")" +
                              store + R"("})");
  ASSERT_NE(open.get("native"), nullptr) << open.dump();
  EXPECT_FALSE(open.get_bool("store_hit", true));
  const std::string sid = open.get_string("session");
  Json tape = ok_rpc(svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  EXPECT_EQ(tape.get("native"), nullptr) << tape.dump();
  const std::string cid = tape.get_string("session");

  Json run;
  int runs = 0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(120));
    const std::string poke = R"(","net":"x","value":)" + std::to_string(runs % 5 - 2) + "}";
    ok_rpc(svc, R"({"op":"poke","session":")" + sid + poke);
    ok_rpc(svc, R"({"op":"poke","session":")" + cid + poke);
    run = ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":3})");
    EXPECT_EQ(ok_rpc(svc, R"({"op":"run","session":")" + cid + R"(","cycles":3})").get("native"),
              nullptr);
    ++runs;
    if (!run.get_bool("native")) {
      EXPECT_EQ(run.get("swap_cycle"), nullptr) << run.dump();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  } while (!run.get_bool("native"));
  const double swap = run.get_number("swap_cycle", -1.0);
  EXPECT_GE(swap, 0.0) << run.dump();
  EXPECT_LE(swap, run.get_number("cycle") - 3) << run.dump();
  EXPECT_EQ(rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + sid + R"("})")),
            rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + cid + R"("})")));
  // The build landed in the store: a second open is native at once.
  Json warm = ok_rpc(svc, R"({"op":"open","engine":"jit","design":"quickstart","store_dir":")" +
                              store + R"("})");
  EXPECT_TRUE(warm.get_bool("store_hit"));
  EXPECT_TRUE(warm.get_bool("native"));
  EXPECT_EQ(warm.get_number("swap_cycle", -1.0), 0.0);
  std::filesystem::remove_all(store);
}

/// A jit whose compiler is missing opens ok on the tape, says native:false,
/// and its build's JIT-001 reaches the session's diag at a cycle boundary.
TEST(Service, JitOpenWithMissingCompilerListsJit001InDiag) {
  const std::string store = ::testing::TempDir() + "asicpp_svc_nocc_" + std::to_string(getpid());
  std::filesystem::remove_all(store);
  Service svc;
  Json open = ok_rpc(svc, R"({"op":"open","engine":"jit","design":"dect","cxx":"/nonexistent/cc",)"
                          R"("store_dir":")" + store + R"("})");
  EXPECT_FALSE(open.get_bool("native", true)) << open.dump();
  const std::string sid = open.get_string("session");
  const auto listed = [&] {
    const Json diag = ok_rpc(svc, R"({"op":"diag","session":")" + sid + R"("})");
    if (const Json* f = diag.get("findings"))
      for (const Json& d : f->items())
        if (d.get_string("code") == "JIT-001") return true;
    return false;
  };
  constexpr int kMaxRuns = 1000;
  int runs = 0;
  while (!listed()) {
    ASSERT_LT(runs++, kMaxRuns) << "no JIT-001 after " << kMaxRuns << " runs";
    const Json run = ok_rpc(svc, R"({"op":"run","session":")" + sid + R"(","cycles":10})");
    EXPECT_FALSE(run.get_bool("native", true)) << run.dump();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::filesystem::remove_all(store);
}

TEST(Service, ForkFromCheckpointResumesByteIdentically) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string parent = open.get_string("session");

  ok_rpc(svc, R"({"op":"poke","session":")" + parent +
                  R"(","net":"x","value":1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + parent + R"(","cycles":4})");
  ok_rpc(svc, R"({"op":"checkpoint","session":")" + parent +
                  R"(","name":"mid"})");

  // Parent continues with a new stimulus...
  ok_rpc(svc, R"({"op":"poke","session":")" + parent +
                  R"(","net":"x","value":-1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + parent + R"(","cycles":4})");
  const auto parent_rows =
      rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + parent +
                              R"(","since":4})"));

  // ...and the fork, resumed from the checkpoint with the same stimulus,
  // must reproduce those rows exactly.
  Json fork = ok_rpc(svc, R"({"op":"fork","session":")" + parent +
                              R"(","from":"mid"})");
  const std::string child = fork.get_string("session");
  ASSERT_FALSE(child.empty());
  ASSERT_NE(child, parent);
  ok_rpc(svc, R"({"op":"poke","session":")" + child +
                  R"(","net":"x","value":-1.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + child + R"(","cycles":4})");
  const auto child_rows =
      rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + child +
                              R"(","since":4})"));

  ASSERT_EQ(child_rows.size(), parent_rows.size());
  for (std::size_t c = 0; c < parent_rows.size(); ++c) {
    ASSERT_EQ(child_rows[c].size(), parent_rows[c].size());
    for (std::size_t i = 0; i < parent_rows[c].size(); ++i)
      EXPECT_EQ(child_rows[c][i], parent_rows[c][i])
          << "cycle " << c << " probe " << i;
  }

  // Diverge the fork: the parent's history is unaffected.
  ok_rpc(svc, R"({"op":"poke","session":")" + child +
                  R"(","net":"x","value":3.0})");
  ok_rpc(svc, R"({"op":"run","session":")" + child + R"(","cycles":2})");
  const auto parent_again =
      rows_of(ok_rpc(svc, R"({"op":"trace","session":")" + parent +
                              R"(","since":4})"));
  EXPECT_EQ(parent_again, parent_rows);
}

TEST(Service, ForkFromUnknownCheckpointFailsSoftly) {
  Service svc;
  Json open = ok_rpc(
      svc, R"({"op":"open","engine":"compiled","design":"quickstart"})");
  const std::string sid = open.get_string("session");
  Json r = rpc(svc, R"({"op":"fork","session":")" + sid +
                        R"(","from":"never_made"})");
  EXPECT_FALSE(r.get_bool("ok", true));
  EXPECT_EQ(svc.session_count(), 1u);  // no half-opened fork left behind
}

TEST(Service, ShutdownIsSticky) {
  Service svc;
  EXPECT_FALSE(svc.shutdown_requested());
  Json r = ok_rpc(svc, R"({"op":"shutdown"})");
  EXPECT_TRUE(r.get_bool("shutdown"));
  EXPECT_TRUE(svc.shutdown_requested());
}

}  // namespace
}  // namespace asicpp
