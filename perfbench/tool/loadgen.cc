// `perfbench_tool load`: the load generator. One process, --conns TCP
// connections to a running `bccs_serve --listen`, one poll loop, closed
// loop: every connection keeps one request outstanding and sends the
// stream's next request as soon as its previous answer arrives (requests
// are handed out in file order).
//
// Sending stops after --seconds (or --limit requests); the generator then
// waits up to kDrainSeconds for outstanding answers. Every sent request
// is logged to --out as
//   index kind status due_ns send_ns recv_ns epoch n hash
// with times relative to the start of the run. "due" is when the
// connection became free, so send - due is the generator's own delay and
// recv - send the latency.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "net/line_protocol.h"
#include "perfbench.h"

namespace perfbench {
namespace {

// An LP answer takes well under a second; a server that leaves one
// outstanding this long has lost it.
constexpr std::int64_t kDrainSeconds = 30;

struct Conn {
  int fd = -1;
  bccs::LineSplitter responses{1 << 16};
  std::string outbuf;
  std::size_t outstanding = 0;
  std::int64_t free_since_ns = 0;  // closed loop: when the last answer arrived
};

bool ConnectTo(int port, Conn* c, std::string* error) {
  c->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (c->fd < 0) {
    *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    *error = std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
  return true;
}

bool Flush(Conn* c) {
  while (!c->outbuf.empty()) {
    const ssize_t n = ::send(c->fd, c->outbuf.data(), c->outbuf.size(), MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    c->outbuf.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

int LoadMain(const bccs::ArgParser& args) {
  const int port = static_cast<int>(args.GetIntOr("port", 0));
  const auto num_conns =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.GetIntOr("conns", 2)));
  const auto run_ns = static_cast<std::int64_t>(args.GetDoubleOr("seconds", 10) * 1e9);
  const std::int64_t drain_ns = kDrainSeconds * 1'000'000'000;
  std::vector<Request> requests;
  std::string error;
  if (!ReadRequests(args.GetStringOr("requests", ""), &requests, &error)) {
    std::fprintf(stderr, "load: %s\n", error.c_str());
    return 2;
  }
  const auto limit = static_cast<std::size_t>(
      args.GetIntOr("limit", static_cast<std::int64_t>(requests.size())));
  const std::size_t total = std::min(limit, requests.size());
  std::unordered_map<std::uint64_t, std::size_t> index_of_id;
  for (std::size_t i = 0; i < total; ++i) index_of_id[requests[i].parsed.id] = i;

  std::vector<Conn> conns(num_conns);
  for (Conn& c : conns) {
    if (!ConnectTo(port, &c, &error)) {
      std::fprintf(stderr, "load: connect to port %d: %s\n", port, error.c_str());
      return 1;
    }
  }

  std::vector<LogRecord> log(total);
  std::vector<char> sent(total, 0);
  std::size_t next = 0, outstanding = 0, protocol_errors = 0;
  const std::int64_t start = NowNs();
  std::int64_t stop_at = -1;  // when sending ended
  auto send = [&](std::size_t i, Conn& c, std::int64_t due_ns) {
    LogRecord& rec = log[i];
    rec.index = i;
    rec.is_update = requests[i].is_update();
    rec.status = "miss";
    rec.due_ns = due_ns;
    rec.send_ns = NowNs() - start;
    c.outbuf += requests[i].line;
    c.outbuf += '\n';
    ++c.outstanding;
    ++outstanding;
    sent[i] = 1;
    Flush(&c);
  };

  std::vector<pollfd> fds(num_conns);
  bool broken = false;
  while (!broken) {
    const std::int64_t now = NowNs() - start;
    if (stop_at < 0 && (now >= run_ns || next >= total)) stop_at = now;
    if (stop_at < 0) {
      for (Conn& c : conns) {
        if (c.outstanding == 0 && next < total) send(next++, c, c.free_since_ns);
      }
    } else if (outstanding == 0 || now - stop_at > drain_ns) {
      break;
    }
    // Block in the kernel until an answer arrives: a spinning generator
    // would steal the CPU the server needs on a small machine. The timeout
    // only bounds how late the end of the window is noticed.
    const timespec timeout{0, 50'000'000};
    for (std::size_t k = 0; k < num_conns; ++k) {
      const short events = POLLIN | (conns[k].outbuf.empty() ? 0 : POLLOUT);
      fds[k] = {conns[k].fd, events, 0};
    }
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) break;
    for (std::size_t k = 0; k < num_conns; ++k) {
      Conn& c = conns[k];
      if (fds[k].revents & POLLOUT) Flush(&c);
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        broken = true;  // the server closed a connection: remaining answers are missing
        break;
      }
      const std::int64_t recv_ns = NowNs() - start;
      if (!c.responses.Feed({buf, static_cast<std::size_t>(n)})) {
        broken = true;  // a response line longer than any the protocol sends
        break;
      }
      std::string line;
      while (c.responses.Next(&line)) {
        std::uint64_t id = 0;
        LogRecord parsed;
        auto it = index_of_id.end();
        if (ParseResponse(line, &id, &parsed)) it = index_of_id.find(id);
        if (it == index_of_id.end() || !sent[it->second] ||
            log[it->second].status != "miss") {
          ++protocol_errors;
          continue;
        }
        LogRecord& rec = log[it->second];
        rec.status = parsed.status;
        rec.recv_ns = recv_ns;
        rec.epoch = parsed.epoch;
        rec.size = parsed.size;
        rec.hash = parsed.hash;
        --c.outstanding;
        --outstanding;
        c.free_since_ns = recv_ns;
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);

  std::ofstream out(args.GetStringOr("out", ""));
  std::size_t num_sent = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (!sent[i]) continue;
    ++num_sent;
    const LogRecord& r = log[i];
    char hash[24];
    std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(r.hash));
    out << r.index << ' ' << (r.is_update ? 'u' : 'q') << ' ' << r.status << ' '
        << r.due_ns << ' ' << r.send_ns << ' ' << r.recv_ns << ' ' << r.epoch << ' '
        << r.size << ' ' << hash << '\n';
  }
  if (!out) {
    std::fprintf(stderr, "load: cannot write the log\n");
    return 1;
  }
  // stray_lines: responses that name no sent request, or one already
  // answered.
  std::printf("{\"sent\": %zu, \"unanswered\": %zu, \"stray_lines\": %zu, "
              "\"send_seconds\": %.6f}\n",
              num_sent, outstanding, protocol_errors, static_cast<double>(stop_at) / 1e9);
  return 0;
}

}  // namespace perfbench
