#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/shared_bytes.hpp"
#include "util/small_fn.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace psf::util {
namespace {

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform_u64(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear
}

TEST(RngTest, UniformSingleton) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_u64(9, 9), 9u);
  EXPECT_EQ(rng.uniform_i64(-4, -4), -4);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatesInverseRate) {
  Rng rng(123);
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += rng.exponential(4.0);
  EXPECT_NEAR(total / n, 0.25, 0.01);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(9);
  Rng child = parent.fork();
  // Child should not replay the parent's stream.
  Rng parent_copy(9);
  parent_copy.fork();
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

// ---- strings ----------------------------------------------------------------

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t\na b\n"), "a b");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KB");
  EXPECT_EQ(format_duration_us(500), "500.0 us");
  EXPECT_EQ(format_duration_us(2500), "2.50 ms");
  EXPECT_EQ(format_duration_us(3.2e6), "3.200 s");
}

// ---- status / expected ------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = unsatisfiable("no mapping");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kUnsatisfiable);
  EXPECT_EQ(st.to_string(), "unsatisfiable: no mapping");
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> e = 5;
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 5);
  EXPECT_TRUE(e.status().is_ok());
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> e = not_found("missing");
  EXPECT_FALSE(e.has_value());
  EXPECT_EQ(e.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(ExpectedTest, MoveOutValue) {
  Expected<std::string> e = std::string("payload");
  std::string s = std::move(e).value();
  EXPECT_EQ(s, "payload");
}

// ---- stats ------------------------------------------------------------------

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.1);
}

TEST(StatsTest, PercentileAfterMoreSamples) {
  SampleSet s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(20.0);  // re-sorts lazily
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
}

// ---- thread pool --------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroCount) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ManyTasksComplete) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

// ---- SmallFn ---------------------------------------------------------------

TEST(SmallFnTest, InlineCaptureAvoidsHeapFallback) {
  SmallFn::reset_counters();
  const std::uint64_t base = SmallFn::constructed_count();
  int hits = 0;
  std::uint64_t a = 1, b = 2, c = 3;  // 24-byte capture + int* fits inline
  SmallFn fn([&hits, a, b, c] { hits += static_cast<int>(a + b + c); });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(hits, 6);
  EXPECT_EQ(SmallFn::constructed_count() - base, 1u);
  EXPECT_EQ(SmallFn::heap_fallback_count(), 0u);
}

TEST(SmallFnTest, OversizedCaptureFallsBackToHeapOnce) {
  SmallFn::reset_counters();
  struct Big {
    unsigned char bytes[SmallFn::kInlineBytes + 8] = {};
  } big;
  big.bytes[0] = 7;
  int seen = 0;
  SmallFn fn([big, &seen] { seen = big.bytes[0]; });
  EXPECT_EQ(SmallFn::heap_fallback_count(), 1u);
  // Moving a heap-backed SmallFn steals the pointer — no second fallback.
  SmallFn moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(SmallFn::heap_fallback_count(), 1u);
  EXPECT_EQ(SmallFn::constructed_count(), 1u);  // moves don't count
}

TEST(SmallFnTest, MoveRelocatesInlineStateAndEmptiesSource) {
  auto owner = std::make_shared<int>(41);
  SmallFn fn([owner] { ++*owner; });
  EXPECT_EQ(owner.use_count(), 2);
  SmallFn moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(owner.use_count(), 2);  // relocated, not copied
  moved();
  EXPECT_EQ(*owner, 42);
  SmallFn assigned;
  assigned = std::move(moved);
  assigned();
  EXPECT_EQ(*owner, 43);
  assigned = SmallFn([] {});  // overwrite destroys the old capture
  EXPECT_EQ(owner.use_count(), 1);
}

TEST(SmallFnTest, CallingEmptyFnDies) {
  SmallFn empty;
  EXPECT_DEATH(empty(), "empty SmallFn");
}

TEST(SmallFnTest, GenericFormForwardsMoveOnlyArguments) {
  int got = 0;
  SmallFunction<void(std::unique_ptr<int>)> take(
      [&got](std::unique_ptr<int> p) { got = *p; });
  take(std::make_unique<int>(5));
  EXPECT_EQ(got, 5);

  // A move-only capture plus a by-reference argument.
  auto owned = std::make_unique<int>(2);
  SmallFunction<void(int&)> add([owned = std::move(owned)](int& x) {
    x += *owned;
  });
  int x = 1;
  add(x);
  EXPECT_EQ(x, 3);
}

TEST(SmallFnTest, ConstCallRunsMutableCallable) {
  std::vector<int> seen;
  const SmallFunction<void(int)> count(
      [calls = 0, &seen](int v) mutable { seen.push_back(v + ++calls); });
  count(10);
  count(10);
  EXPECT_EQ(seen, (std::vector<int>{11, 12}));
}

TEST(SmallFnTest, EverySignatureSharesOneCounterBlock) {
  SmallFn::reset_counters();
  struct Big {
    unsigned char bytes[SmallFn::kInlineBytes + 8] = {};
  } big;
  int sum = 0;
  SmallFunction<void(int)> wide([big, &sum](int v) { sum = v + big.bytes[0]; });
  SmallFunction<void(const std::string&)> narrow(
      [&sum](const std::string& s) { sum += static_cast<int>(s.size()); });
  wide(1);
  narrow("ab");
  EXPECT_EQ(sum, 3);
  EXPECT_EQ(SmallFn::heap_fallback_count(), 1u);
  EXPECT_EQ(SmallFunction<void(int)>::heap_fallback_count(), 1u);
  EXPECT_EQ(SmallFn::constructed_count(), 2u);
  SmallFunction<void(const std::string&)>::reset_counters();
  EXPECT_EQ(SmallFn::constructed_count(), 0u);
}

// ---- SharedBytes -----------------------------------------------------------

TEST(SharedBytesTest, CopySharesTheBuffer) {
  SharedBytes original;
  original.assign(64, 0xAB);
  const SharedBytes copy(original);
  EXPECT_EQ(copy.data(), original.data());
  EXPECT_EQ(copy.size(), 64u);
  EXPECT_EQ(copy.front(), 0xAB);
  EXPECT_EQ(copy[63], 0xAB);
}

TEST(SharedBytesTest, AssignAndClearRebindOnlyThisCopy) {
  const std::string text = "shared body";
  SharedBytes a;
  a.assign(text.begin(), text.end());
  SharedBytes b = a;
  const std::uint8_t* shared = a.data();

  b.assign(3, 'z');
  EXPECT_NE(b.data(), shared);
  EXPECT_EQ(std::string(b.begin(), b.end()), "zzz");
  EXPECT_EQ(a.data(), shared);
  EXPECT_EQ(std::string(a.begin(), a.end()), text);

  SharedBytes c = a;
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.begin(), c.end());
  EXPECT_EQ(std::string(a.begin(), a.end()), text);

  // Assigning a copy's own bytes back to it keeps them alive for the copy.
  a.assign(a.begin() + 7, a.end());
  EXPECT_EQ(std::string(a.begin(), a.end()), "body");
  EXPECT_EQ(std::string(c.begin(), c.end()), "");
}

TEST(SharedBytesTest, EmptyInitializerListAndAdoptedVector) {
  const SharedBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.begin(), empty.end());
  SharedBytes none;
  none.assign(0, 'x');
  EXPECT_TRUE(none.empty());

  SharedBytes listed = {'h', 'i'};
  EXPECT_EQ(std::string(listed.begin(), listed.end()), "hi");
  listed = {'o', 'k', '!'};
  EXPECT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[2], '!');

  // Adopting a vector keeps its buffer: no byte is copied.
  std::vector<std::uint8_t> decrypted{1, 2, 3, 4};
  const std::uint8_t* buffer = decrypted.data();
  SharedBytes adopted;
  adopted = std::move(decrypted);
  EXPECT_EQ(adopted.data(), buffer);
  EXPECT_EQ(std::vector<std::uint8_t>(adopted.begin(), adopted.end()),
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
  const std::span<const std::uint8_t> view(adopted);
  EXPECT_EQ(view.data(), buffer);
  EXPECT_EQ(view.size(), 4u);
}

}  // namespace
}  // namespace psf::util
