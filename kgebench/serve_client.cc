#include "serve_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common.h"

extern char** environ;

namespace kgebench {

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& log_path, double timeout_s,
                          std::string* error) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = "pipe() failed";
    return false;
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  if (log_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, log_fd, STDERR_FILENO);
  }
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const int spawned = ::posix_spawn(&pid_, argv[0].c_str(), &actions, nullptr,
                                    args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (log_fd >= 0) ::close(log_fd);
  if (spawned != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    *error = "cannot spawn " + argv[0] + ": " + std::strerror(spawned);
    return false;
  }
  stdout_fd_ = pipe_fds[0];

  // Wait for "... port=N" on the child's stdout.
  const Clock::time_point start = Clock::now();
  std::string text;
  while (true) {
    const size_t at = text.find("port=");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = std::atoi(text.c_str() + at + 5);
      if (port_ > 0) return true;
    }
    const double left = timeout_s - SecondsSince(start);
    if (left <= 0.0) {
      *error = "kge_serve did not report a port in time";
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, int(std::min(left, 1.0) * 1000) + 1);
    if (ready > 0) {
      char buffer[512];
      const ssize_t got = ::read(stdout_fd_, buffer, sizeof(buffer));
      if (got <= 0) {
        *error = "kge_serve exited before listening (see " + log_path + ")";
        return false;
      }
      text.append(buffer, size_t(got));
    }
  }
}

int ServerProcess::Stop() {
  int status = -1;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    bool reaped = false;
    while (SecondsSince(start) < 60.0) {
      const pid_t got = ::waitpid(pid_, &status, WNOHANG);
      if (got == pid_ || got < 0) {
        reaped = true;
        break;
      }
      // Drain its stdout so a final summary line never blocks it.
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (stdout_fd_ >= 0 && ::poll(&pfd, 1, 10) > 0) {
        char buffer[512];
        if (::read(stdout_fd_, buffer, sizeof(buffer)) <= 0) {
          ::close(stdout_fd_);
          stdout_fd_ = -1;
        }
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  port_ = 0;
  return status;
}

ServeConnection::~ServeConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool ServeConnection::Connect(int port) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(uint16_t(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  frame_.assign(kge::kRequestFrameBytes, 0);
  response_.assign(kge::MaxResponseFrameBytes(kge::kServeMaxTopK), 0);
  return true;
}

bool ServeConnection::Query(const kge::ServeRequest& request,
                            kge::ServeResponseHeader* header,
                            std::vector<kge::ScoredEntity>* results) {
  auto fail = [this] {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    return false;
  };
  if (fd_ < 0) return false;
  const size_t encoded = kge::EncodeServeRequest(request, frame_);
  if (encoded == 0 || !kge::WriteAll(fd_, frame_.data(), encoded)) return fail();
  if (!kge::ReadExact(fd_, response_.data(), kge::kFrameHeaderBytes)) {
    return fail();
  }
  uint32_t magic = 0;
  uint32_t body_len = 0;
  kge::DecodeFrameHeader(
      std::span<const uint8_t>(response_.data(), kge::kFrameHeaderBytes),
      &magic, &body_len);
  if (magic != kge::kServeResponseMagic ||
      body_len > response_.size() - kge::kFrameHeaderBytes ||
      !kge::ReadExact(fd_, response_.data() + kge::kFrameHeaderBytes,
                      body_len)) {
    return fail();
  }
  results->clear();
  const kge::Status decoded = kge::DecodeServeResponseFrame(
      std::span<const uint8_t>(response_.data(),
                               kge::kFrameHeaderBytes + body_len),
      header, results);
  return decoded.ok() ? true : fail();
}

namespace {

void Record(const kge::ServeResponseHeader& header,
            std::vector<kge::ScoredEntity>* results, bool keep,
            Outcome* outcome) {
  outcome->status = header.status;
  outcome->count = uint32_t(results->size());
  outcome->ordered = true;
  for (size_t i = 1; i < results->size(); ++i) {
    if ((*results)[i].score > (*results)[i - 1].score) outcome->ordered = false;
  }
  if (keep) outcome->results = *results;
}

}  // namespace

bool RunOpenLoop(int port, const std::vector<kge::ServeRequest>& requests,
                 const std::vector<double>& due, int connections,
                 const std::vector<char>& keep, std::vector<Outcome>* out) {
  std::vector<std::unique_ptr<ServeConnection>> conns;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<ServeConnection>());
    if (!conns.back()->Connect(port)) return false;
  }
  out->assign(requests.size(), Outcome{});
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  auto worker = [&](ServeConnection* conn) {
    kge::ServeResponseHeader header;
    std::vector<kge::ScoredEntity> results;
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      Outcome& outcome = (*out)[i];
      outcome.index = i;
      outcome.due = due[i];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[i])));
      outcome.sent = SecondsSince(start);
      const bool replied = conn->Query(requests[i], &header, &results);
      outcome.done = SecondsSince(start);
      outcome.io_error = !replied;
      if (replied) Record(header, &results, keep[i] != 0, &outcome);
    }
  };
  std::vector<std::thread> threads;
  for (auto& conn : conns) threads.emplace_back(worker, conn.get());
  for (std::thread& thread : threads) thread.join();
  return true;
}

bool RunClosedLoop(int port, const std::vector<kge::ServeRequest>& requests,
                   int callers, double seconds, size_t min_replies,
                   size_t keep_every, std::vector<Outcome>* out) {
  std::vector<std::unique_ptr<ServeConnection>> conns;
  for (int c = 0; c < callers; ++c) {
    conns.push_back(std::make_unique<ServeConnection>());
    if (!conns.back()->Connect(port)) return false;
  }
  std::vector<std::vector<Outcome>> per_caller(static_cast<size_t>(callers));
  std::atomic<size_t> next{0};
  std::atomic<size_t> replies{0};
  const Clock::time_point start = Clock::now();
  auto worker = [&](ServeConnection* conn, std::vector<Outcome>* mine) {
    kge::ServeResponseHeader header;
    std::vector<kge::ScoredEntity> results;
    while (SecondsSince(start) < seconds || replies.load() < min_replies) {
      const size_t i = next.fetch_add(1);
      Outcome outcome;
      outcome.due = outcome.sent = SecondsSince(start);
      const bool replied =
          conn->Query(requests[i % requests.size()], &header, &results);
      outcome.done = SecondsSince(start);
      outcome.io_error = !replied;
      if (replied) {
        Record(header, &results, keep_every > 0 && i % keep_every == 0,
               &outcome);
      }
      outcome.index = i % requests.size();
      mine->push_back(std::move(outcome));
      replies.fetch_add(1);
      if (!replied) return;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back(worker, conns[size_t(c)].get(),
                         &per_caller[size_t(c)]);
  }
  for (std::thread& thread : threads) thread.join();
  out->clear();
  for (auto& mine : per_caller) {
    for (Outcome& outcome : mine) out->push_back(std::move(outcome));
  }
  return true;
}

}  // namespace kgebench
