#include "proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "server/http_server.hpp"

namespace perfbench {

double mono_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

volatile std::sig_atomic_t g_serving_group = 0;

namespace {

void on_fatal_signal(int sig) {
  if (g_serving_group > 0) ::kill(-g_serving_group, SIGKILL);
  // As the subreaper this process inherits the replicas once their router
  // is gone, so this reaps the whole tree.
  while (::waitpid(-1, nullptr, 0) > 0) {
  }
  ::_exit(128 + sig);
}

}  // namespace

void supervise_children() {
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  std::signal(SIGTERM, on_fatal_signal);
  std::signal(SIGINT, on_fatal_signal);
}

namespace {

pid_t parent_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // "pid (comm) state ppid ...": comm may hold spaces, so parse after ')'.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(stat.substr(close + 1));
  std::string state;
  pid_t ppid = -1;
  rest >> state >> ppid;
  return ppid;
}

std::vector<pid_t> all_pids() {
  std::vector<pid_t> pids;
  if (DIR* dir = ::opendir("/proc")) {
    while (dirent* e = ::readdir(dir)) {
      char* end = nullptr;
      const long v = std::strtol(e->d_name, &end, 10);
      if (end != e->d_name && *end == '\0') pids.push_back(static_cast<pid_t>(v));
    }
    ::closedir(dir);
  }
  return pids;
}

double peak_rss_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  return 0.0;
}

std::vector<pid_t> process_tree(pid_t root) {
  std::vector<std::pair<pid_t, pid_t>> links;  // (pid, ppid)
  for (const pid_t p : all_pids()) links.emplace_back(p, parent_of(p));
  std::vector<pid_t> tree{root};
  for (std::size_t i = 0; i < tree.size(); ++i)
    for (const auto& [p, pp] : links)
      if (pp == tree[i]) tree.push_back(p);
  return tree;
}

bool health_ok(int port, bool router, int replicas) {
  std::string body;
  if (http_get(port, "/health", body) != 200) return false;
  if (!router) return true;
  const auto alive = json_numbers(body, "alive");
  return !alive.empty() && static_cast<int>(alive.front()) == replicas;
}

}  // namespace

void reap_all_children() {
  const pid_t self = ::getpid();
  for (int round = 0; round < 50; ++round) {
    bool any = false;
    for (const pid_t p : all_pids())
      if (parent_of(p) == self) {
        ::kill(p, SIGKILL);
        any = true;
      }
    while (::waitpid(-1, nullptr, WNOHANG) > 0) {
    }
    if (!any) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}


ServingProcess::ServingProcess(const std::vector<std::string>& argv,
                               const std::vector<std::string>& env,
                               const std::string& log_path, bool router, int replicas,
                               double timeout_s) {
  // The child's environment: this process's, with `env` entries replacing
  // variables of the same name. Built before fork so the child only execs.
  std::vector<std::string> merged(env);
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const auto name = entry.substr(0, entry.find('=') + 1);
    if (std::none_of(env.begin(), env.end(), [&](const std::string& x) { return x.starts_with(name); }))
      merged.emplace_back(entry);
  }
  std::vector<char*> envp;
  for (auto& e : merged) envp.push_back(e.data());
  envp.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  spawned_at_ = mono_now();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Its own process group, so stop() (or a signal to the benchmark) can
    // take down everything it forks: fork workers, router replicas.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::dup2(fds[1], STDOUT_FILENO);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execve(args[0], args.data(), envp.data());
    ::_exit(127);
  }
  ::setpgid(pid_, pid_);
  g_serving_group = pid_;
  ::close(fds[1]);
  out_fd_ = fds[0];

  const double deadline = spawned_at_ + timeout_s;
  std::string out;
  // Spawned replicas share the router's stdout, so match the binary's own banner.
  const std::string banner =
      std::string(router ? "gllm_router" : "gllm_server") + ": listening on 127.0.0.1:";
  while (port_ == 0) {
    const double left = deadline - mono_now();
    if (left <= 0) break;
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) break;  // exited before listening
    out.append(buf, static_cast<std::size_t>(n));
    if (const auto at = out.find(banner); at != std::string::npos)
      port_ = std::atoi(out.c_str() + at + banner.size());
  }
  while (port_ != 0 && !health_ok(port_, router, replicas) && mono_now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ready_at_ = mono_now();
  if (port_ == 0 || ready_at_ >= deadline) {
    stop(2.0);
    throw std::runtime_error("serving process not ready: " + argv[0] + " (see " +
                             log_path + ")");
  }
  ::fcntl(out_fd_, F_SETFL, O_NONBLOCK);
}

ServingProcess::~ServingProcess() { stop(); }

double ServingProcess::tree_cpu_s() const {
  if (pid_ <= 0) return 0.0;
  double ticks = 0.0;
  for (const pid_t p : process_tree(pid_)) {
    std::ifstream in("/proc/" + std::to_string(p) + "/stat");
    std::string stat;
    std::getline(in, stat);
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    // Fields 3-13 after "pid (comm)", then utime and stime (clock ticks).
    std::istringstream rest(stat.substr(close + 1));
    std::string skip;
    for (int f = 3; f <= 13; ++f) rest >> skip;
    double utime = 0.0, stime = 0.0;
    rest >> utime >> stime;
    ticks += utime + stime;
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServingProcess::tree_peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  double kb = 0.0;
  for (const pid_t p : process_tree(pid_)) kb += peak_rss_kb(p);
  return kb / 1024.0;
}

int ServingProcess::stop(double timeout_s) {
  if (pid_ <= 0) return exit_status_;
  ::kill(pid_, SIGTERM);
  const double deadline = mono_now() + timeout_s;
  int status = 0;
  pid_t got = 0;
  while ((got = ::waitpid(pid_, &status, WNOHANG)) == 0 && mono_now() < deadline) {
    char buf[4096];
    while (::read(out_fd_, buf, sizeof(buf)) > 0) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (got == pid_ && WIFEXITED(status)) exit_status_ = WEXITSTATUS(status);
  // Whatever the root left behind (or the root itself, if it hung) dies here.
  ::kill(-pid_, SIGKILL);
  g_serving_group = 0;
  if (got == 0) ::waitpid(pid_, &status, 0);
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
  ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  return exit_status_;
}

std::pair<double, double> read_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {  // user nice system idle iowait irq softirq steal
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

int http_get(int port, const std::string& path, std::string& body) {
  return gllm::server::http_request(port, "GET", path, "", body);
}

std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  return out;
}

std::vector<double> json_numbers(const std::string& json, const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  for (auto at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + needle.size()))
    out.push_back(std::atof(json.c_str() + at + needle.size()));
  return out;
}

}  // namespace perfbench
