// The unified compile pipeline and its content-addressed artifact store:
// store round-trips and atomicity, spec-text parsing (verify::from_text),
// CompileRequest routing and error codes, cross-engine trace parity
// through the pipeline, warm/cold store hits for the jit engine, and
// registry thread-safety under concurrent sessions.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "pipeline/artifact.h"
#include "pipeline/pipeline.h"
#include "verify/gen.h"

namespace asicpp {
namespace {

using pipeline::ArtifactStore;
using pipeline::CompileRequest;
using pipeline::CompileResult;

std::string scratch_dir(const std::string& stem) {
  const std::string d =
      "/tmp/" + stem + "_" + std::to_string(static_cast<long>(getpid()));
  std::system(("rm -rf " + d).c_str());
  return d;
}

// --- artifact store ---------------------------------------------------------

TEST(ArtifactStore, PutFetchContainsDiscard) {
  ArtifactStore store(scratch_dir("asicpp_store_basic"));
  const std::uint64_t key = 0x1234abcd5678ef01ull;
  EXPECT_FALSE(store.contains("jit", key, "cpp"));
  ASSERT_TRUE(store.put("jit", key, "cpp", "int main() {}\n"));
  EXPECT_TRUE(store.contains("jit", key, "cpp"));
  std::string content;
  ASSERT_TRUE(store.fetch("jit", key, "cpp", &content));
  EXPECT_EQ(content, "int main() {}\n");
  // A second extension under the same key is a distinct artifact.
  EXPECT_FALSE(store.contains("jit", key, "so"));
  EXPECT_TRUE(store.discard("jit", key, "cpp"));
  EXPECT_FALSE(store.contains("jit", key, "cpp"));
  EXPECT_FALSE(store.discard("jit", key, "cpp"));  // already gone
}

TEST(ArtifactStore, PathShapeIsStageHex16Ext) {
  ArtifactStore store(scratch_dir("asicpp_store_path"));
  EXPECT_EQ(ArtifactStore::hex16(0x00ffull), "00000000000000ff");
  const std::string p = store.path("jit", 0xdeadbeefull, "so");
  EXPECT_EQ(p, store.dir() + "/jit-00000000deadbeef.so");
}

TEST(ArtifactStore, PutViaFailureLeavesNoArtifact) {
  ArtifactStore store(scratch_dir("asicpp_store_via"));
  const std::uint64_t key = 42;
  EXPECT_FALSE(store.put_via("jit", key, "so",
                             [](const std::string&) { return false; }));
  EXPECT_FALSE(store.contains("jit", key, "so"));
  EXPECT_TRUE(store.put_via("jit", key, "so", [](const std::string& tmp) {
    std::ofstream os(tmp);
    os << "fake image";
    return true;
  }));
  std::string content;
  ASSERT_TRUE(store.fetch("jit", key, "so", &content));
  EXPECT_EQ(content, "fake image");
}

TEST(ArtifactStore, ExplicitDirWinsOverEnvChain) {
  const std::string dir = scratch_dir("asicpp_store_dir");
  EXPECT_EQ(ArtifactStore::resolve_dir(dir), dir);
  setenv("ASICPP_STORE_DIR", "/tmp/asicpp_store_env_test", 1);
  EXPECT_EQ(ArtifactStore::resolve_dir(""), "/tmp/asicpp_store_env_test");
  unsetenv("ASICPP_STORE_DIR");
}

// --- spec text round trip ---------------------------------------------------

TEST(SpecText, RoundTripsThroughFromText) {
  for (unsigned seed : {0u, 7u, 123u}) {
    const verify::Spec spec = verify::generate(verify::GenConfig{}, seed);
    const std::string text = verify::to_text(spec);
    const verify::Spec back = verify::from_text(text);
    EXPECT_EQ(verify::to_text(back), text) << "seed " << seed;
  }
}

TEST(SpecText, ParseErrorsNameTheLine) {
  EXPECT_THROW(verify::from_text("not a spec"), std::runtime_error);
  try {
    verify::from_text("spec wl=8 iwl=4 cycles=4 seed=1\ncomp bogus\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("line 2"), std::string::npos)
        << ex.what();
  }
}

// --- pipeline routing and error codes ---------------------------------------

TEST(Pipeline, UnknownEngineIsPipe002) {
  CompileRequest req;
  req.spec = verify::generate(verify::GenConfig{}, 0);
  req.has_spec = true;
  req.engine = "no-such-engine";
  const CompileResult r = pipeline::compile(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "PIPE-002");
  EXPECT_NE(r.error.find("registered:"), std::string::npos) << r.error;
}

TEST(Pipeline, BadSpecTextIsPipe001) {
  CompileRequest req;
  req.spec_text = "garbage\n";
  req.engine = "iterative";
  const CompileResult r = pipeline::compile(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "PIPE-001");
}

TEST(Pipeline, DesignBindOutsideEngineDomainIsPipe004) {
  // cppgen has no live-design binding (in_process=false), so handing it a
  // caller-owned scheduler is a domain limit, not a crash.
  sfg::Clk clk;
  sched::CycleScheduler sched{clk};
  CompileRequest req;
  req.design = &sched;
  req.engine = "cppgen";
  const CompileResult r = pipeline::compile(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "PIPE-004");
}

TEST(Pipeline, SpecTextAndSpecObjectCompileIdentically) {
  const verify::Spec spec = verify::generate(verify::GenConfig{}, 3);
  CompileRequest via_spec;
  via_spec.spec = spec;
  via_spec.has_spec = true;
  via_spec.engine = "compiled";
  CompileRequest via_text;
  via_text.spec_text = verify::to_text(spec);
  via_text.engine = "compiled";

  CompileResult a = pipeline::compile(via_spec);
  CompileResult b = pipeline::compile(via_text);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.spec_key, b.spec_key);
  ASSERT_EQ(a.probes, b.probes);
  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    a.instance->cycle();
    b.instance->cycle();
    for (const std::string& p : a.probes)
      EXPECT_EQ(a.instance->probe(p), b.instance->probe(p))
          << "cycle " << c << " net " << p;
  }
}

/// Every registered engine, reached through the pipeline API, produces a
/// trace cycle-exact with the engine's own direct trace() entry point
/// (or the same domain-limit skip).
TEST(Pipeline, AllEnginesReachableWithTraceParity) {
  const verify::Spec spec = verify::generate(verify::GenConfig{}, 11);
  const std::string store = scratch_dir("asicpp_pipe_parity_store");
  int reached = 0;
  for (const std::string& name : engine::Registry::global().names()) {
    const engine::Engine* eng = engine::Registry::global().find(name);
    ASSERT_NE(eng, nullptr);
    engine::TraceOptions topts;
    topts.store_dir = store;
    const engine::Trace direct = eng->trace(spec, topts);

    CompileRequest req;
    req.spec = spec;
    req.has_spec = true;
    req.engine = name;
    req.store_dir = store;
    const CompileResult r = pipeline::compile(req);
    if (!direct.skip_reason.empty()) {
      // The pipeline must report the same domain limit the engine does.
      EXPECT_FALSE(r.ok) << name;
      EXPECT_EQ(r.code, "PIPE-004") << name << ": " << r.error;
      EXPECT_EQ(r.error, direct.skip_reason) << name;
      continue;
    }
    ASSERT_TRUE(direct.ran) << name << ": " << direct.fail_reason;
    ASSERT_TRUE(r.ok) << name << ": " << r.error;
    ++reached;
    for (std::uint64_t c = 0; c < spec.cycles; ++c) {
      r.instance->cycle();
      for (std::size_t i = 0; i < r.probes.size(); ++i)
        EXPECT_EQ(r.instance->probe(r.probes[i]), direct.values[c][i])
            << name << " cycle " << c << " net " << r.probes[i];
    }
  }
  EXPECT_GE(reached, 5);  // at minimum the in-process engines + cppgen
  std::system(("rm -rf " + store).c_str());
}

TEST(Pipeline, JitWarmCompileHitsTheStore) {
  const verify::Spec spec = verify::generate(verify::GenConfig{}, 5);
  const std::string store = scratch_dir("asicpp_pipe_warm_store");
  CompileRequest req;
  req.spec = spec;
  req.has_spec = true;
  req.engine = "jit";
  req.store_dir = store;
  // Wait for native code: a tiered bind returns before the compiler ran.
  req.tiered = false;

  CompileResult cold = pipeline::compile(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.store_hit);
  EXPECT_GT(cold.compile_seconds, 0.0);

  CompileResult warm = pipeline::compile(req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.store_hit);

  for (std::uint64_t c = 0; c < spec.cycles; ++c) {
    cold.instance->cycle();
    warm.instance->cycle();
    for (const std::string& p : cold.probes)
      EXPECT_EQ(cold.instance->probe(p), warm.instance->probe(p))
          << "cycle " << c << " net " << p;
  }
  std::system(("rm -rf " + store).c_str());
}

TEST(Pipeline, RequestKeySeparatesEngineAndPasses) {
  const verify::Spec spec = verify::generate(verify::GenConfig{}, 2);
  CompileRequest a;
  a.engine = "compiled";
  CompileRequest b = a;
  b.engine = "jit";
  EXPECT_NE(pipeline::request_key(spec, a), pipeline::request_key(spec, b));
  CompileRequest c = a;
  c.passes = opt::PassOptions::raw();
  EXPECT_NE(pipeline::request_key(spec, a), pipeline::request_key(spec, c));
  EXPECT_EQ(pipeline::request_key(spec, a), pipeline::request_key(spec, a));
}

// --- registry thread-safety -------------------------------------------------

TEST(Registry, ConcurrentLookupsAndListingsAreSafe) {
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 500; ++i) {
        const engine::Registry& reg = engine::Registry::global();
        if (reg.find("compiled") == nullptr) failures.fetch_add(1);
        if (reg.names().size() < 7) failures.fetch_add(1);
        if (reg.all().empty()) failures.fetch_add(1);
        if (reg.names_csv().find("jit") == std::string::npos)
          failures.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Registry, ConcurrentAddsToLocalRegistryAreSafe) {
  engine::Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < 50; ++i) {
        class Dummy : public engine::Engine {
         public:
          explicit Dummy(std::string n) : name_(std::move(n)) {}
          const std::string& name() const override { return name_; }
          const engine::Capabilities& caps() const override { return caps_; }

         private:
          std::string name_;
          engine::Capabilities caps_;
        };
        reg.add(std::make_unique<Dummy>("dummy" + std::to_string(t) + "_" +
                                        std::to_string(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<std::string> names = reg.names();
  EXPECT_EQ(names.size(), 200u);
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), 200u);
}

}  // namespace
}  // namespace asicpp
