// Unit tests of the benchmark's own pieces: SSE splitting, the percentile
// support rule and seed determinism of the generated workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sse.hpp"
#include "stats.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

const std::string kStream =
    "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nConnection: close\r\n\r\n"
    "data: {\"id\":3,\"token\":17}\n\n"
    "data: {\"id\":3,\"token\":201}\n\n"
    "data: {\"id\":3,\"done\":true,\"tokens\":2,\"finish_reason\":\"length\"}\n\n"
    "data: [DONE]\n\n";

std::vector<SseEvent> feed_in_pieces(const std::string& bytes, std::size_t piece) {
  ResponseReader reader;
  std::vector<SseEvent> out;
  for (std::size_t at = 0; at < bytes.size(); at += piece)
    reader.feed(std::string_view(bytes).substr(at, piece), out);
  EXPECT_EQ(reader.status(), 200);
  EXPECT_TRUE(reader.event_stream());
  return out;
}

}  // namespace

TEST(Sse, EventsSplitAcrossReadsParseAsWhole) {
  const auto whole = feed_in_pieces(kStream, kStream.size());
  ASSERT_EQ(whole.size(), 4u);
  EXPECT_EQ(whole[0].kind, SseEvent::Kind::kToken);
  EXPECT_EQ(whole[0].token, 17);
  EXPECT_EQ(whole[1].token, 201);
  EXPECT_EQ(whole[2].kind, SseEvent::Kind::kDone);
  EXPECT_EQ(whole[3].kind, SseEvent::Kind::kEnd);
  for (std::size_t piece = 1; piece < kStream.size(); ++piece) {
    const auto split = feed_in_pieces(kStream, piece);
    ASSERT_EQ(split.size(), whole.size()) << "piece " << piece;
    for (std::size_t i = 0; i < split.size(); ++i) {
      EXPECT_EQ(split[i].kind, whole[i].kind);
      EXPECT_EQ(split[i].token, whole[i].token);
    }
  }
}

TEST(Sse, ErrorEventsAndPlainBodies) {
  ResponseReader sse;
  std::vector<SseEvent> out;
  sse.feed("HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n"
           "data: {\"id\":1,\"done\":true,\"error\":\"worker_failure\"}\n\n", out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, SseEvent::Kind::kError);

  ResponseReader shed;
  shed.feed("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{", out);
  shed.feed("}", out);
  EXPECT_EQ(shed.status(), 503);
  EXPECT_FALSE(shed.event_stream());
  EXPECT_EQ(shed.body(), "{}");
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(percentile_supported(99, 0.9));
  EXPECT_TRUE(percentile_supported(100, 0.9));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
}

TEST(Workload, ScheduleIsSeedDeterministic) {
  const auto a = poisson_schedule(20.0, 5.0, 7);
  const auto b = poisson_schedule(20.0, 5.0, 7);
  const auto c = poisson_schedule(20.0, 5.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 5.0);
  // A long schedule's arrival count is close to rate x duration.
  const auto longer = poisson_schedule(20.0, 200.0, 7);
  EXPECT_NEAR(static_cast<double>(longer.size()), 4000.0, 4 * 63.3);
}

TEST(Workload, RequestsAreSeedDeterministicAndPerStream) {
  WorkloadParams p;
  const auto a = make_request(p, 5, 1, 42);
  const auto b = make_request(p, 5, 1, 42);
  EXPECT_EQ(a.prompt, b.prompt);
  EXPECT_EQ(a.max_tokens, b.max_tokens);
  EXPECT_NE(make_request(p, 5, 2, 42).prompt, a.prompt);
  EXPECT_NE(make_request(p, 6, 1, 42).prompt, a.prompt);
  for (int v : a.prompt) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, p.vocab);
  }
}

TEST(Workload, SharedPrefixesComeFromAFixedSet) {
  WorkloadParams p;
  p.prefixes = 8;
  p.prefix_len = 64;
  p.prompt_mean = 16;
  std::set<std::vector<int>> prefixes;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const auto r = make_request(p, 3, i % 3, i);
    ASSERT_GE(r.prompt.size(), 64u + static_cast<std::size_t>(p.prompt_min));
    prefixes.insert(std::vector<int>(r.prompt.begin(), r.prompt.begin() + 64));
  }
  EXPECT_EQ(prefixes.size(), 8u);
}
