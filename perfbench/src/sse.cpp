#include "sse.hpp"

#include <cstdlib>

namespace perfbench {

void ResponseReader::feed(std::string_view bytes, std::vector<SseEvent>& out) {
  if (head_done_ && !event_stream_) {
    body_.append(bytes);
    return;
  }
  buf_.append(bytes);
  if (!head_done_) {
    const auto end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) return;
    const std::string_view head(buf_.data(), end);
    // "HTTP/1.1 200 OK": the status code follows the first space.
    const auto sp = head.find(' ');
    status_ = sp == std::string_view::npos ? -1 : std::atoi(head.data() + sp + 1);
    event_stream_ = head.find("text/event-stream") != std::string_view::npos;
    head_done_ = true;
    buf_.erase(0, end + 4);
    if (!event_stream_) {
      body_ = std::move(buf_);
      buf_.clear();
      return;
    }
  }
  std::size_t start = 0;
  for (;;) {
    const auto end = buf_.find("\n\n", start);
    if (end == std::string::npos) break;
    parse_event(std::string_view(buf_).substr(start, end - start), out);
    start = end + 2;
  }
  buf_.erase(0, start);
}

void ResponseReader::parse_event(std::string_view block, std::vector<SseEvent>& out) const {
  constexpr std::string_view kData = "data: ";
  if (block.substr(0, kData.size()) != kData) return;
  const std::string_view data = block.substr(kData.size());
  SseEvent ev;
  if (data == "[DONE]") {
    ev.kind = SseEvent::Kind::kEnd;
  } else if (const auto t = data.find("\"token\":"); t != std::string_view::npos) {
    ev.kind = SseEvent::Kind::kToken;
    ev.token = std::atoi(data.data() + t + 8);
  } else if (data.find("\"error\"") != std::string_view::npos) {
    ev.kind = SseEvent::Kind::kError;
  } else if (data.find("\"done\":true") != std::string_view::npos) {
    ev.kind = SseEvent::Kind::kDone;
  } else {
    return;
  }
  out.push_back(ev);
}

}  // namespace perfbench
