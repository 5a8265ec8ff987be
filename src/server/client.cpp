/// \file client.cpp
/// \brief Blocking pipelined protocol client (see client.hpp).

#include "server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace ccc::server {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

int connect_blocking(const std::string& address, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad address: " + address);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect");
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{};
  timeout.tv_sec = 30;  // a wedged server should fail tests, not hang them
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

void write_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

BlockingClient::BlockingClient(const std::string& address, std::uint16_t port,
                               std::size_t max_response_body)
    : fd_(connect_blocking(address, port)),
      decoder_(max_response_body),
      in_(std::size_t{64} << 10) {}

BlockingClient::~BlockingClient() { close(); }

void BlockingClient::enqueue_get(TenantId tenant, PageId page) {
  append_request(out_, Opcode::kGet, tenant, page);
}

void BlockingClient::enqueue_set(TenantId tenant, PageId page) {
  append_request(out_, Opcode::kSet, tenant, page);
}

void BlockingClient::enqueue_stats() {
  append_request(out_, Opcode::kStats, 0, 0);
}

void BlockingClient::enqueue_rebalance() {
  append_request(out_, Opcode::kRebalance, 0, 0);
}

void BlockingClient::append_raw(std::string_view bytes) { out_ += bytes; }

void BlockingClient::flush() {
  if (out_.empty()) return;
  write_all(fd_, out_.data(), out_.size());
  out_.clear();
}

void BlockingClient::read_responses(
    std::size_t count, const std::function<void(const ResponseMsg&)>& sink) {
  std::size_t delivered = 0;
  while (delivered < count) {
    const ssize_t n = ::read(fd_, in_.data(), in_.size());
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw std::runtime_error("receive timeout");
      throw_errno("read");
    }
    const DecodeError err = decoder_.feed(
        std::string_view(in_.data(), static_cast<std::size_t>(n)),
        [&](const FrameView& frame) {
          const std::optional<ResponseMsg> msg = parse_response(frame);
          if (!msg.has_value())
            throw std::runtime_error("short response body");
          ++delivered;
          sink(*msg);
        });
    if (err != DecodeError::kNone)
      throw std::runtime_error("response framing error " +
                               std::to_string(static_cast<int>(err)));
  }
}

std::uint8_t BlockingClient::call(Opcode opcode, TenantId tenant,
                                  PageId page) {
  append_request(out_, opcode, tenant, page);
  flush();
  std::uint8_t status = 0;
  read_responses(1, [&](const ResponseMsg& msg) { status = msg.status; });
  return status;
}

StatsPayload BlockingClient::stats() {
  enqueue_stats();
  flush();
  std::optional<StatsPayload> payload;
  std::uint8_t status = 0;
  read_responses(1, [&](const ResponseMsg& msg) {
    status = msg.status;
    payload = parse_stats_body(msg.tail);
  });
  if (status != static_cast<std::uint8_t>(Status::kOk) ||
      !payload.has_value())
    throw std::runtime_error("bad STATS response");
  return std::move(*payload);
}

void BlockingClient::rebalance() {
  const std::uint8_t status = call(Opcode::kRebalance, 0, 0);
  if (status != static_cast<std::uint8_t>(Status::kOk))
    throw std::runtime_error("bad REBALANCE response: status " +
                             std::to_string(status));
}

void BlockingClient::shutdown_write() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_WR);
}

void BlockingClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string http_get(const std::string& address, std::uint16_t port,
                     const std::string& target) {
  const int fd = connect_blocking(address, port);
  try {
    const std::string request = "GET " + target +
                                " HTTP/1.1\r\nHost: " + address +
                                "\r\nConnection: close\r\n\r\n";
    write_all(fd, request.data(), request.size());
    std::string response;
    std::vector<char> chunk(std::size_t{64} << 10);
    while (true) {
      const ssize_t n = ::read(fd, chunk.data(), chunk.size());
      if (n == 0) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("read");
      }
      response.append(chunk.data(), static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace ccc::server
