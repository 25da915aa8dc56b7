#pragma once
// Outside-the-program measurement: spawn a serving binary, wait until it is
// ready, read its process tree's peak RSS from /proc, scrape its HTTP
// endpoints, and stop it (and anything it forked) for good.

#include <sys/types.h>

#include <csignal>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double mono_now();  ///< steady-clock seconds

/// Process group of the live ServingProcess (0 = none), for signal handlers.
extern volatile std::sig_atomic_t g_serving_group;

/// Make this process the reaper of every orphan it leaves behind, so
/// grandchildren (router replicas) can always be collected, and make SIGTERM
/// or SIGINT take the live serving process group down with it.
void supervise_children();
/// SIGKILL and reap every remaining child of this process.
void reap_all_children();

class ServingProcess {
 public:
  /// Fork+exec argv, with the "NAME=value" entries of `env` added to (or
  /// replacing) this process's environment, stdout on a pipe and stderr
  /// appended to log_path;
  /// ready once the "listening on 127.0.0.1:<port>" line is printed and
  /// GET /health answers 200 (for a router, with every replica alive).
  /// Throws on failure or after timeout_s.
  ServingProcess(const std::vector<std::string>& argv, const std::vector<std::string>& env,
                 const std::string& log_path, bool router, int replicas, double timeout_s);
  ~ServingProcess();
  ServingProcess(const ServingProcess&) = delete;
  ServingProcess& operator=(const ServingProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  double spawned_at() const { return spawned_at_; }
  double setup_s() const { return ready_at_ - spawned_at_; }
  /// Peak RSS (VmHWM) summed over the live process tree, MiB.
  double tree_peak_rss_mb() const;
  /// User + system CPU seconds of the live process tree's processes (time
  /// the hypervisor stole from their vCPUs is not charged to them).
  double tree_cpu_s() const;
  /// SIGTERM, wait up to timeout_s, then SIGKILL. Returns the exit status
  /// (or -1 when it had to be killed). Idempotent.
  int stop(double timeout_s = 10.0);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  int exit_status_ = -1;
  double spawned_at_ = 0.0;
  double ready_at_ = 0.0;
};

/// Aggregate CPU time counters from /proc/stat (jiffies): {steal, total}.
std::pair<double, double> read_cpu();

/// GET path on 127.0.0.1:port; returns the HTTP status (-1 on failure).
int http_get(int port, const std::string& path, std::string& body);

/// Prometheus text exposition -> {series name: value} (histogram series keep
/// their _sum/_count/_bucket{..} suffixes).
std::map<std::string, double> parse_prometheus(const std::string& text);

/// Every numeric value of "key": in a JSON text, in document order.
std::vector<double> json_numbers(const std::string& json, const std::string& key);

}  // namespace perfbench
