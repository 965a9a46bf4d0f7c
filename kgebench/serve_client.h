// Client side of the serving workloads: launching the real kge_serve
// binary, talking its length-prefixed protocol over loopback TCP, and
// driving open-loop (scheduled) and closed-loop traffic over a few
// connections.
#ifndef KGEBENCH_SERVE_CLIENT_H_
#define KGEBENCH_SERVE_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kge.h"

namespace kgebench {

// One kge_serve child process. The destructor stops it (SIGTERM, then
// SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `argv` (argv[0] is the binary path) with stderr appended to
  // `log_path`, and waits up to `timeout_s` for the "port=" line it
  // prints once listening.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             double timeout_s, std::string* error);
  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  // Stops and reaps the process; returns its wait status (-1 if none ran).
  int Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

// A blocking connection to a serve port on 127.0.0.1.
class ServeConnection {
 public:
  ServeConnection() = default;
  ~ServeConnection();
  ServeConnection(const ServeConnection&) = delete;
  ServeConnection& operator=(const ServeConnection&) = delete;

  bool Connect(int port);
  // Sends one request and waits for its reply. False on an I/O or
  // framing error (the connection is then closed).
  bool Query(const kge::ServeRequest& request,
             kge::ServeResponseHeader* header,
             std::vector<kge::ScoredEntity>* results);

 private:
  int fd_ = -1;
  std::vector<uint8_t> frame_;
  std::vector<uint8_t> response_;
};

// Result of one request of a traffic phase. Times are seconds from the
// phase start.
struct Outcome {
  size_t index = 0;   // position in the request list
  double due = 0.0;   // when the schedule wanted it sent
  double sent = 0.0;  // when a connection actually sent it
  double done = 0.0;  // when its reply arrived
  bool io_error = false;
  kge::ServeStatusCode status = kge::ServeStatusCode::kError;
  uint32_t count = 0;
  bool ordered = false;  // scores non-increasing
  // Entries, kept only for requests sampled for the oracle.
  std::vector<kge::ScoredEntity> results;

  bool ok(uint32_t k) const {
    return !io_error && status == kge::ServeStatusCode::kOk && count == k &&
           ordered;
  }
  // Latency from the due time (open loop) in milliseconds.
  double LatencyMs() const { return (done - due) * 1e3; }
};

// Sends `requests[i]` at `due[i]` seconds after the start over
// `connections` connections; a request whose due time finds every
// connection busy is sent as soon as one frees up (its latency still
// counts from the due time). `keep[i]` retains that reply's entries.
// Returns false if a connection could not be opened.
bool RunOpenLoop(int port, const std::vector<kge::ServeRequest>& requests,
                 const std::vector<double>& due, int connections,
                 const std::vector<char>& keep, std::vector<Outcome>* out);

// `callers` connections each send their next request as soon as the
// previous reply arrives, drawing requests in order from `requests`
// (cycling), until `seconds` have passed and at least `min_replies`
// replies arrived. due == sent for every outcome.
bool RunClosedLoop(int port, const std::vector<kge::ServeRequest>& requests,
                   int callers, double seconds, size_t min_replies,
                   size_t keep_every, std::vector<Outcome>* out);

}  // namespace kgebench

#endif  // KGEBENCH_SERVE_CLIENT_H_
