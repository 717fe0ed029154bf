// asicpp-serve: the simulation-service daemon.
//
// Listens on a Unix socket and speaks the service's newline-delimited JSON
// protocol (src/service/service.h), one thread per connection — concurrent
// clients drive independent sessions, and sessions opened from the same
// spec text share compile artifacts through the content-addressed store.
// The accept loop joins the thread of every finished connection, so a
// long-lived daemon serving one-shot clients holds only the threads of the
// connections still open.
//
//   asicpp-serve --socket /tmp/asicpp.sock [--store-dir DIR]
//
// A stale socket file (e.g. after a kill -9) is unlinked at startup, so a
// restarted daemon binds cleanly; clients simply reconnect and reopen
// their sessions. A request line longer than service::kMaxRequestLine
// (1 MiB) gets one {"ok":false,"code":"SVC-001",...} reply and its
// connection is closed; other connections are unaffected. Exits 0 on a
// protocol {"op":"shutdown"} or SIGINT/SIGTERM.
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <string>
#include <thread>

#include "service/linebuf.h"
#include "service/service.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

struct Args {
  std::string socket_path = "/tmp/asicpp-serve.sock";
  std::string store_dir;
  bool verbose = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--store-dir DIR] [--verbose]\n"
               "  --socket PATH     Unix socket to listen on "
               "(default /tmp/asicpp-serve.sock)\n"
               "  --store-dir DIR   artifact-store directory (default: the "
               "$ASICPP_STORE_DIR chain)\n"
               "  --verbose         log each request line to stderr\n",
               argv0);
  return 2;
}

/// Write all of `resp` and a newline; false when the client went away.
bool send_line(int fd, std::string resp) {
  resp += '\n';
  std::size_t off = 0;
  while (off < resp.size()) {
    const ssize_t w = write(fd, resp.data() + off, resp.size() - off);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// One connection: read JSON lines, answer each, until EOF, shutdown or a
/// line over the cap.
void serve_connection(asicpp::service::Service* svc, int fd, bool verbose) {
  using asicpp::service::LineBuffer;
  LineBuffer lines;
  std::string line;
  char chunk[4096];
  for (;;) {
    const ssize_t n = read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    lines.append(chunk, static_cast<std::size_t>(n));
    LineBuffer::Status st;
    while ((st = lines.next(line)) != LineBuffer::Status::kNeedMore) {
      if (st == LineBuffer::Status::kTooLong) {
        send_line(fd, asicpp::service::line_too_long_reply());
        close(fd);
        return;
      }
      if (line.empty()) continue;
      if (verbose) std::fprintf(stderr, "<- %s\n", line.c_str());
      if (!send_line(fd, svc->handle_line(line)) || svc->shutdown_requested()) {
        close(fd);
        return;
      }
    }
  }
  close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--socket") args.socket_path = need("--socket");
    else if (a == "--store-dir") args.store_dir = need("--store-dir");
    else if (a == "--verbose") args.verbose = true;
    else return usage(argv[0]);
  }
  if (!args.store_dir.empty())
    setenv("ASICPP_STORE_DIR", args.store_dir.c_str(), 1);

  // A client vanishing mid-write must not kill the daemon.
  signal(SIGPIPE, SIG_IGN);
  signal(SIGINT, on_signal);
  signal(SIGTERM, on_signal);

  const int lfd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (lfd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (args.socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "socket path too long: %s\n",
                 args.socket_path.c_str());
    return 2;
  }
  std::strncpy(addr.sun_path, args.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  // Clean restart after a crash/kill -9: the previous socket file lingers;
  // remove it before binding.
  unlink(args.socket_path.c_str());
  if (bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("bind");
    close(lfd);
    return 1;
  }
  if (listen(lfd, 16) != 0) {
    std::perror("listen");
    close(lfd);
    return 1;
  }
  std::fprintf(stderr, "asicpp-serve: listening on %s\n",
               args.socket_path.c_str());

  asicpp::service::Service svc;
  // A connection's thread, and whether it has finished (its last act).
  struct Worker {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Worker> workers;  // a list: a worker's flag never moves
  while (!g_stop.load() && !svc.shutdown_requested()) {
    workers.remove_if([](Worker& w) {
      if (!w.done.load()) return false;
      w.thread.join();
      return true;
    });
    // Poll accept with a timeout so shutdown requests are honored promptly.
    fd_set fds;
    FD_ZERO(&fds);
    FD_SET(lfd, &fds);
    timeval tv{0, 200 * 1000};
    const int r = select(lfd + 1, &fds, nullptr, nullptr, &tv);
    if (r <= 0) continue;
    const int cfd = accept(lfd, nullptr, nullptr);
    if (cfd < 0) continue;
    Worker& w = workers.emplace_back();
    w.thread = std::thread([&svc, &w, cfd, verbose = args.verbose] {
      serve_connection(&svc, cfd, verbose);
      w.done.store(true);
    });
  }
  for (Worker& w : workers) w.thread.join();
  close(lfd);
  unlink(args.socket_path.c_str());
  std::fprintf(stderr, "asicpp-serve: shut down\n");
  return 0;
}
