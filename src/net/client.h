#ifndef BCCS_NET_CLIENT_H_
#define BCCS_NET_CLIENT_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace bccs {

/// A minimal blocking line client for the bccs wire protocol — the test
/// harness's view of the server (tests/net_serve_test.cc). Deliberately
/// primitive: one socket, blocking I/O with a receive timeout, newline
/// framing. Not used by the server.
class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { Close(); }
  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) noexcept;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects to host:port (dotted IPv4). False + *error on failure.
  bool Connect(const std::string& host, int port, std::string* error);

  bool connected() const { return fd_ >= 0; }

  /// Sends one request line ('\n' appended). False on a broken connection.
  bool SendLine(std::string_view line);

  /// Sends raw bytes exactly as given — lets tests control packetization
  /// (1-byte torn writes, many pipelined requests in one send).
  bool SendRaw(std::string_view bytes);

  /// Reads the next response line (terminator stripped). False on EOF,
  /// error, or timeout (timeout_seconds <= 0 waits indefinitely).
  bool ReadLine(std::string* line, double timeout_seconds = 30.0);

  /// Half-close: shutdown(SHUT_WR) — tells the server EOF while responses
  /// can still be read (the shell-client pattern).
  void CloseSend();

  /// Full close. Abrupt from the server's view if responses are unread —
  /// exactly what the retry tests need.
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // received bytes past the last returned line
};

}  // namespace bccs

#endif  // BCCS_NET_CLIENT_H_
