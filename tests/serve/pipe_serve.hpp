#pragma once

// Test helper that runs serve::serve_fd over a real pipe, the way
// `psn_cli serve` reads its stdin: a producer thread write(2)s the input in
// fixed-size pieces and closes its end while the calling thread serves the
// read end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/fd.hpp"
#include "serve/session.hpp"

namespace psn::serve {

/// Serves `input` through a pipe, written `write_size` bytes per write(2).
/// After a strict stop the rest of the input is read and discarded, so the
/// producer always reaches EOF instead of blocking on a full pipe.
inline SoakReport serve_through_pipe(const SessionConfig& config,
                                     std::string_view input,
                                     Session::Writer writer,
                                     std::size_t write_size = 65536) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return {};
  }
  UniqueFd read_end(fds[0]);
  UniqueFd write_end(fds[1]);
  std::thread producer([&write_end, input, write_size] {
    for (std::size_t off = 0; off < input.size();) {
      const std::size_t len = std::min(write_size, input.size() - off);
      const ssize_t n = ::write(write_end.get(), input.data() + off, len);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    write_end.reset();
  });
  const SoakReport report =
      serve_fd(config, read_end.get(), std::move(writer));
  char sink[4096];
  while (::read(read_end.get(), sink, sizeof(sink)) > 0) {
  }
  producer.join();
  return report;
}

/// serve_through_pipe with everything the session writes collected.
struct PipeServe {
  std::string out;
  SoakReport report;
};

inline PipeServe serve_through_pipe(const SoakServerConfig& config,
                                    std::string_view input,
                                    std::size_t write_size = 65536) {
  SessionConfig session;
  session.soak = config;
  PipeServe result;
  result.report = serve_through_pipe(
      session, input,
      [&result](std::string_view chunk) {
        result.out.append(chunk);
        return true;
      },
      write_size);
  return result;
}

}  // namespace psn::serve
