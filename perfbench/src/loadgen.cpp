#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <deque>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "proc.hpp"
#include "sse.hpp"

namespace perfbench {

std::size_t PhaseResult::count(RequestRecord::Outcome o) const {
  std::size_t n = 0;
  for (const auto& r : requests) n += r.outcome == o ? 1 : 0;
  return n;
}

std::vector<PhaseResult::Slice> PhaseResult::slices() const {
  std::vector<Slice> out;
  for (std::size_t k = 0; k + 1 < cpu.size(); ++k) {
    const double total = cpu[k + 1].total - cpu[k].total;
    out.push_back(Slice{cpu[k].t, cpu[k + 1].t,
                        total > 0 ? (cpu[k + 1].steal - cpu[k].steal) / total : 0.0});
  }
  return out;
}

double PhaseResult::token_rate(double a, double b) const {
  double n = 0.0;
  for (const auto& r : requests)
    for (const double t : r.token_times) n += t >= a && t < b ? 1.0 : 0.0;
  return b > a ? n / (b - a) : 0.0;
}

namespace {

/// A file descriptor closed when its owner goes away.
struct OwnedFd {
  int fd = -1;
  explicit OwnedFd(int f) : fd(f) {}
  ~OwnedFd() {
    if (fd >= 0) ::close(fd);
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
};

struct Conn {
  explicit Conn(int f) : sock(f) {}
  OwnedFd sock;
  long record = -1;  ///< index into requests, or -1 for a scrape
  std::string path;  ///< scrape path
  std::string out;
  std::size_t sent = 0;
  ResponseReader reader;
  bool done_event = false;
};

int open_nonblocking(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

PhaseResult LoadGen::run(const PhaseConfig& cfg) {
  PhaseResult res;
  const OwnedFd epoll_fd(::epoll_create1(EPOLL_CLOEXEC));
  const int ep = epoll_fd.fd;
  if (ep < 0) throw std::runtime_error("epoll_create1 failed");
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  std::deque<long> waiting;  // due records without a free slot, FIFO
  int active = 0;            // request connections open
  std::uint64_t next_index = 0;

  res.t0 = mono_now();
  res.t_end = cfg.open ? res.t0 + (cfg.due.empty() ? 0.0 : cfg.due.back()) : res.t0 + cfg.seconds;
  double next_sample = cfg.sample_every > 0 ? res.t0 : INFINITY;
  double next_cpu = res.t0;
  auto sample_cpu = [&](double t) {
    const auto [steal, total] = read_cpu();
    res.cpu.push_back(CpuSample{t, steal, total});
  };
  const double give_up = res.t_end + cfg.drain_timeout;

  auto add_record = [&](double due) {
    RequestRecord r;
    r.id = next_id_++;
    r.request = make_request(params_, seed_, cfg.stream, next_index++);
    r.http = completion_http(r.id, r.request);
    r.due = due;
    res.requests.push_back(std::move(r));
    return static_cast<long>(res.requests.size() - 1);
  };
  // Opens a connection for `c` (its request bytes already in c->out).
  auto open_conn = [&](std::unique_ptr<Conn> c) {
    const int fd = c->sock.fd;
    if (fd < 0) return false;
    epoll_event ev{};
    ev.events = EPOLLOUT | EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
    conns[fd] = std::move(c);
    return true;
  };
  auto start_request = [&](long idx, double slot) {
    RequestRecord& r = res.requests[static_cast<std::size_t>(idx)];
    r.slot = slot;
    r.start = mono_now();
    auto c = std::make_unique<Conn>(open_nonblocking(port_));
    c->record = idx;
    c->out = r.http;
    if (!open_conn(std::move(c))) {
      r.outcome = RequestRecord::Outcome::kError;
      return false;
    }
    ++active;
    return true;
  };
  auto finish = [&](Conn& c) {
    ::epoll_ctl(ep, EPOLL_CTL_DEL, c.sock.fd, nullptr);
    if (c.record < 0) {
      res.samples.push_back(Sample{mono_now(), c.path, c.reader.body()});
    } else {
      --active;
      RequestRecord& r = res.requests[static_cast<std::size_t>(c.record)];
      r.status = c.reader.status();
      if (r.outcome == RequestRecord::Outcome::kPending) {
        if (r.status == 503)
          r.outcome = RequestRecord::Outcome::kShed;
        else if (r.status == 200 && c.done_event &&
                 static_cast<int>(r.tokens.size()) == r.request.max_tokens)
          r.outcome = RequestRecord::Outcome::kOk;
        else
          r.outcome = RequestRecord::Outcome::kError;
      }
    }
  };

  std::vector<SseEvent> events;
  std::vector<epoll_event> ready(256);
  for (;;) {
    double now = mono_now();
    if (cfg.open) {
      while (next_index < cfg.due.size() && res.t0 + cfg.due[next_index] <= now) {
        const long idx = add_record(res.t0 + cfg.due[next_index]);
        if (active < cfg.conns && waiting.empty())
          start_request(idx, res.requests[static_cast<std::size_t>(idx)].due);
        else
          waiting.push_back(idx);
      }
      while (!waiting.empty() && active < cfg.conns) {
        const long idx = waiting.front();
        waiting.pop_front();
        start_request(idx, now);
      }
    } else {
      while (active < cfg.conns && now < res.t_end)
        if (!start_request(add_record(now), now)) break;
    }
    if (now >= next_cpu && next_cpu <= res.t_end) {
      sample_cpu(now);
      next_cpu += 1.0;
      if (next_cpu > res.t_end) next_cpu = res.t_end;
      if (now >= res.t_end) next_cpu = INFINITY;
    }
    while (now >= next_sample && now < res.t_end) {
      for (const auto& path : cfg.sample_paths) {
        auto c = std::make_unique<Conn>(open_nonblocking(port_));
        c->path = path;
        c->out = "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
        open_conn(std::move(c));
      }
      next_sample += cfg.sample_every;
    }

    const bool issuing = cfg.open ? next_index < cfg.due.size() || !waiting.empty()
                                  : now < res.t_end;
    if (!issuing && conns.empty()) break;
    if (now > give_up) {
      for (auto& [fd, c] : conns) {
        if (c->record >= 0)
          res.requests[static_cast<std::size_t>(c->record)].outcome =
              RequestRecord::Outcome::kError;
        finish(*c);
      }
      conns.clear();
      break;
    }

    double wake = give_up;
    if (cfg.open && next_index < cfg.due.size()) wake = std::min(wake, res.t0 + cfg.due[next_index]);
    if (!cfg.open && now < res.t_end && active < cfg.conns) wake = std::min(wake, res.t_end);
    if (next_sample < res.t_end) wake = std::min(wake, next_sample);
    wake = std::min(wake, next_cpu);
    const double dt = std::max(0.0, wake - now);
    timespec ts{static_cast<time_t>(dt), static_cast<long>((dt - std::floor(dt)) * 1e9)};
    const int n = ::epoll_pwait2(ep, ready.data(), static_cast<int>(ready.size()), &ts, nullptr);
    if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_pwait2 failed");
    for (int i = 0; i < n; ++i) {
      auto it = conns.find(ready[static_cast<std::size_t>(i)].data.fd);
      if (it == conns.end()) continue;
      Conn& c = *it->second;
      bool closed = false;
      if (c.sent < c.out.size()) {
        const ssize_t w = ::send(c.sock.fd, c.out.data() + c.sent, c.out.size() - c.sent, MSG_NOSIGNAL);
        if (w > 0) c.sent += static_cast<std::size_t>(w);
        if (w < 0 && errno != EAGAIN && errno != EINPROGRESS && errno != ENOTCONN) closed = true;
        if (c.sent == c.out.size()) {
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = c.sock.fd;
          ::epoll_ctl(ep, EPOLL_CTL_MOD, c.sock.fd, &ev);
        }
      }
      while (!closed) {
        char buf[16384];
        const ssize_t r = ::recv(c.sock.fd, buf, sizeof(buf), 0);
        if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR)) {
          closed = true;
          break;
        }
        if (r < 0) break;
        const double t = mono_now();
        events.clear();
        c.reader.feed(std::string_view(buf, static_cast<std::size_t>(r)), events);
        if (c.record < 0) continue;
        RequestRecord& rec = res.requests[static_cast<std::size_t>(c.record)];
        for (const SseEvent& e : events) {
          if (e.kind == SseEvent::Kind::kToken) {
            if (rec.tokens.empty()) rec.first = t;
            rec.last = t;
            rec.tokens.push_back(e.token);
            rec.token_times.push_back(t);
          } else if (e.kind == SseEvent::Kind::kDone) {
            c.done_event = true;
          } else if (e.kind == SseEvent::Kind::kError) {
            rec.outcome = RequestRecord::Outcome::kError;
          }
        }
      }
      if (closed) {
        finish(c);
        conns.erase(it);
      }
    }
  }
  return res;
}

}  // namespace perfbench
