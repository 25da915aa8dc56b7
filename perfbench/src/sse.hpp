#pragma once
// Incremental HTTP response reader for the load generator: parses the status
// line and head, then either splits an SSE body into events (tolerating an
// event split across any number of reads) or accumulates a plain body.

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SseEvent {
  enum class Kind { kToken, kDone, kError, kEnd };
  Kind kind = Kind::kEnd;
  int token = -1;
};

class ResponseReader {
 public:
  /// Consume the next bytes; complete SSE events are appended to `out`.
  void feed(std::string_view bytes, std::vector<SseEvent>& out);

  bool head_done() const { return head_done_; }
  int status() const { return status_; }
  bool event_stream() const { return event_stream_; }
  /// Non-SSE body bytes received so far.
  const std::string& body() const { return body_; }

 private:
  void parse_event(std::string_view block, std::vector<SseEvent>& out) const;

  std::string buf_;
  std::string body_;
  bool head_done_ = false;
  bool event_stream_ = false;
  int status_ = 0;
};

}  // namespace perfbench
