// serve-hot and serve-churn: the real `graphalytics_cli serve` daemon,
// driven by one single-threaded client polling four unix-socket
// connections. An open loop at a fixed rate (latency timed from each
// request's due time) is followed by a closed loop on all connections
// (capacity).
//
//   serve-hot    --workers 1 --jobs 4, no memory budget, R1/R2/R4/G22 at
//                divisor 1024 on five engines (not dataflow), all resident
//                after warm-up: per-request fixed costs (protocol,
//                admission, job framing, superstep constants, serialize)
//                dominate.
//   serve-churn  --workers 4 --jobs 1, --data-dir, a memory budget below
//                the rotated working set, D300/G22/R4 at divisor 512 with
//                bfs/wcc and 10% planned-crash requests: residency misses
//                reload and verify snapshots on the request path, and
//                executors contend (faulted requests run exclusively).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/json_reader.h"
#include "core/rng.h"
#include "serve/protocol.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kConnections = 4;
constexpr int kSetupReps = 5;
constexpr const char* kSocket = "serve.sock";
constexpr const char* kLog = "daemon.log";
constexpr int kDaemonNice = 10;
/// The daemon's malloc mmap threshold, pinned at glibc's ceiling (32 MiB).
/// Left dynamic, the first few large frees decided whether the graph
/// arrays of later snapshot reloads came from fresh mmaps or the reused
/// heap, and serve-churn runs split by seed into two regimes 2x apart.
constexpr const char* kMmapThreshold = "MALLOC_MMAP_THRESHOLD_=33554432";
constexpr const char* kFaultPlan = "crash_at_superstep=1";
/// Open-loop validity: the generator may run at most this late at p99,
/// and at most this many requests may be outstanding when the schedule
/// ends, or the run measured the client rather than the daemon. Over ten
/// seeds per workload (four-core host) the generator ran 0.2-2.9 ms late
/// at p99, and 5-12 requests were in flight at most, 1-5 at the end.
constexpr double kMaxLatenessMs = 5.0;
constexpr int kMaxOutstandingAtEnd = 24;

struct Shape {
  std::int64_t divisor = 1024;
  std::vector<std::string> datasets;
  std::vector<ga::Algorithm> algorithms;
  int workers = 1;
  int jobs = 4;
  bool memory_budget = false;
  /// One request in `fault_every` carries the planned-crash fault plan
  /// (0: none).
  int fault_every = 0;
  /// Fixed open-loop rate: about 40% of the closed-loop capacity
  /// (throughput_per_s) measured on a 4-core host; see WORKLOADS.md.
  double rate_rps = 0.0;
  /// Share of --seconds spent in the open loop; the rest is closed loop.
  double open_share = 0.75;
  /// Deal each dataset's requests as one block per cycle instead of
  /// interleaving the datasets request by request.
  bool dataset_blocks = false;
};

/// Open-loop latency percentile reported as tail_ms, and the fewest
/// open-loop samples above it for a valid run.
constexpr double kTailPercentile = 99.0;
constexpr double kMinBeyondTail = 10.0;

/// Every engine but dataflow. Its jobs take 10-170 ms on these graphs,
/// up to 50x the mix's median: with it the open loop measured queueing
/// behind a few long jobs, and their overlap on the executors made every
/// figure swing between seeds. batch-sweep still runs it.
std::vector<std::string> ServePlatforms() {
  std::vector<std::string> platforms = ga::platform::AllPlatformIds();
  std::erase(platforms, "dataflow");
  return platforms;
}

Shape ShapeFor(const std::string& workload) {
  using ga::Algorithm;
  Shape shape;
  if (workload == "serve-hot") {
    shape.divisor = 1024;
    shape.datasets = {"R1", "R2", "R4", "G22"};
    shape.algorithms = {Algorithm::kBfs, Algorithm::kWcc,
                        Algorithm::kPageRank, Algorithm::kCdlp};
    shape.workers = 1;
    shape.jobs = 4;
    shape.rate_rps = 200.0;
  } else {
    shape.divisor = 512;
    shape.datasets = {"D300", "G22", "R4"};
    shape.algorithms = {Algorithm::kBfs, Algorithm::kWcc};
    shape.workers = 4;
    shape.jobs = 1;
    shape.memory_budget = true;
    shape.fault_every = 10;
    shape.rate_rps = 66.0;
    // 1122 requests, at least 1008 of them unfaulted: ten samples above
    // p99.
    shape.open_share = 0.85;
    // Interleaved datasets made the residency pattern depend on how the
    // four executors happened to overlap (hit share 0.43-0.52 and p50
    // 26-43 ms over ten seeds). In blocks, each cycle reloads each
    // dataset once at a fixed point.
    shape.dataset_blocks = true;
  }
  return shape;
}

// --- the daemon process -------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& cli, const std::vector<std::string>& args,
             std::int64_t divisor) {
    // Everything the child needs is built before fork: after it, only
    // async-signal-safe calls until exec.
    std::vector<std::string> env_strings = {
        "GA_SCALE_DIVISOR=" + std::to_string(divisor), "GA_SEED=42",
        kMmapThreshold};
    for (char** entry = environ; *entry != nullptr; ++entry) {
      if (std::strncmp(*entry, "GA_", 3) != 0 &&
          std::strncmp(*entry, "MALLOC_", 7) != 0) {
        env_strings.push_back(*entry);
      }
    }
    std::vector<char*> envp, argv;
    for (std::string& entry : env_strings) envp.push_back(entry.data());
    envp.push_back(nullptr);
    std::vector<std::string> arg_strings = {cli, "serve"};
    arg_strings.insert(arg_strings.end(), args.begin(), args.end());
    for (std::string& arg : arg_strings) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      if (::getppid() != parent) ::_exit(127);
      // The daemon's executors can occupy every core; a lower priority
      // keeps the single-threaded client punctual, so the open loop
      // measures the daemon and not a starved generator.
      ::setpriority(PRIO_PROCESS, 0, kDaemonNice);
      const int log = ::open(kLog, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    return pid_ > 0;
  }

  /// Waits until the daemon accepts connections and has announced itself
  /// on its log, which it does only after its SIGTERM handler is in place.
  bool WaitReady(double timeout_s) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (Clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      const int fd = Connect();
      if (fd >= 0) {
        ::close(fd);
        std::ifstream log(kLog);
        const std::string text((std::istreambuf_iterator<char>(log)),
                               std::istreambuf_iterator<char>());
        if (text.find("serving on") != std::string::npos) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  static int Connect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  int pid() const { return pid_; }

  /// SIGTERM (the daemon drains), then waits; SIGKILL after 30 s.
  /// True when the daemon exited cleanly.
  bool Stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
};

// --- the client ---------------------------------------------------------------

struct Connection {
  int fd = -1;
  std::string buffer;
};

class Client {
 public:
  ~Client() {
    for (Connection& connection : connections_) {
      if (connection.fd >= 0) ::close(connection.fd);
    }
  }

  bool Connect(int count) {
    for (int i = 0; i < count; ++i) {
      Connection connection;
      connection.fd = Daemon::Connect();
      if (connection.fd < 0) return false;
      connections_.push_back(std::move(connection));
    }
    return true;
  }

  bool Send(int connection, const std::string& line) {
    const int fd = connections_[static_cast<std::size_t>(connection)].fd;
    std::size_t written = 0;
    while (written < line.size()) {
      const ssize_t n = ::send(fd, line.data() + written, line.size() - written,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      written += static_cast<std::size_t>(n);
    }
    return true;
  }

  using LineHandler =
      std::function<void(int connection, std::string line, Clock::time_point)>;

  /// Polls every connection until `until`, handing each complete response
  /// line to `on_line` with its arrival time. Returns early after the
  /// first batch of lines. False on a socket error or disconnect.
  bool Poll(Clock::time_point until, const LineHandler& on_line) {
    std::vector<pollfd> fds;
    for (const Connection& connection : connections_) {
      fds.push_back(pollfd{connection.fd, POLLIN, 0});
    }
    const auto wait = std::max<Clock::duration>(Clock::duration::zero(),
                                                until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{static_cast<time_t>(ns / 1000000000),
                     static_cast<long>(ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0) return errno == EINTR;
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[65536];
      const ssize_t n = ::read(fds[i].fd, chunk, sizeof(chunk));
      if (n <= 0) return false;
      std::string& buffer = connections_[i].buffer;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        on_line(static_cast<int>(i), std::move(line), now);
      }
    }
    return true;
  }

 private:
  std::vector<Connection> connections_;
};

// --- expectations -------------------------------------------------------------

struct Expected {
  std::string fnv;
  double tproc = 0.0;
  double makespan = 0.0;
  int supersteps = 0;
};

/// In-process RunJob of every cell, as the daemon will run it: the
/// expected outcome, output FNV and simulated metrics of each request.
bool ExpectCells(const Shape& shape, const Fixture& fixture,
                 const ga::harness::BenchmarkConfig& config,
                 ga::exec::ThreadPool* pool, std::vector<Cell>* mix,
                 std::map<std::string, Expected>* expected, Report& report) {
  mix->clear();
  expected->clear();
  for (const std::string& dataset : shape.datasets) {
    const ga::Graph* graph = *fixture.registry->Load(dataset);
    const ga::AlgorithmParams params = *fixture.registry->ParamsFor(dataset);
    for (ga::Algorithm algorithm : shape.algorithms) {
      for (const std::string& id : ServePlatforms()) {
        const Cell cell{id, dataset, algorithm};
        auto platform = ga::platform::CreatePlatform(id);
        auto run = (*platform)->RunJob(*graph, algorithm, params,
                                       JobEnvironment(config, pool));
        const bool should_complete =
            ExpectedOutcome(cell, shape.divisor) == Outcome::kCompleted;
        if (run.ok() != should_complete) {
          report.Fail(cell.Name() + ": expected " +
                      std::string(OutcomeName(ExpectedOutcome(cell, shape.divisor))) +
                      ", got " +
                      (run.ok() ? "completed" : run.status().ToString()));
          return false;
        }
        if (!run.ok()) continue;
        const auto reference =
            fixture.references.find(RefKey(dataset, algorithm));
        if (reference == fixture.references.end() ||
            !ga::ValidateOutput(*graph, reference->second, run->output).ok()) {
          report.Fail(cell.Name() + ": output differs from the reference");
          return false;
        }
        Expected& want = (*expected)[cell.Name()];
        want.fnv = OutputFnv(*graph, run->output);
        want.tproc = config.Project(run->metrics.processing_sim_seconds);
        want.makespan = config.Project(run->metrics.makespan_sim_seconds);
        want.supersteps = run->metrics.supersteps;
        mix->push_back(cell);
      }
    }
  }
  return true;
}

std::string RequestLine(const std::string& id, const Cell& cell, bool fault) {
  ga::JsonWriter json;
  json.BeginObject();
  json.Field("op", "run");
  json.Field("id", id);
  json.Field("algorithm", ga::AlgorithmName(cell.algorithm));
  json.Field("dataset", cell.dataset);
  json.Field("platform", cell.platform);
  if (fault) json.Field("faults", kFaultPlan);
  json.EndObject();
  return json.str() + "\n";
}

// --- one serving session --------------------------------------------------------

struct Request {
  std::size_t cell = 0;
  bool fault = false;
  Clock::time_point due;
  Clock::time_point sent;
  std::string line;
};

struct Sample {
  std::size_t request = 0;
  double latency_ms = 0.0;  // from due time (open loop) or send (closed)
  double queue_wait_ms = 0.0, load_ms = 0.0, exec_ms = 0.0;
  bool completed = false;
};

class Session {
 public:
  Session(const Shape& shape, const std::vector<Cell>& mix,
          const std::map<std::string, Expected>& expected, std::uint64_t seed,
          Client& client, Report& report)
      : shape_(shape), mix_(mix), expected_(expected), rng_(seed),
        client_(client), report_(report) {}

  /// Sends every mix cell once, one at a time (warm-up; not counted).
  bool WarmUp() {
    for (std::size_t cell = 0; cell < mix_.size(); ++cell) {
      const std::size_t index = NewRequest(cell, false, Clock::now(), "w");
      if (!Send(index, 0)) return false;
      if (!Drain(Clock::now() + std::chrono::seconds(30))) return false;
    }
    samples_.clear();
    return true;
  }

  /// Open loop: `count` requests due every 1/rate seconds, each timed
  /// from its due time.
  bool OpenLoop(double seconds) {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / shape_.rate_rps));
    const std::size_t count =
        static_cast<std::size_t>(seconds * shape_.rate_rps);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    std::size_t next = 0;
    outstanding_max_ = 0;
    while (next < count) {
      const Clock::time_point due = start + interval * next;
      if (Clock::now() >= due) {
        const std::size_t index = NextRequest(due, "o");
        if (!Send(index, static_cast<int>(next % kConnections))) return false;
        lateness_ms_.push_back(
            MsBetween(due, requests_[index].sent));
        ++next;
        continue;
      }
      if (!Receive(due)) return false;
    }
    outstanding_at_end_ = outstanding_;
    return Drain(Clock::now() + std::chrono::seconds(30));
  }

  /// Closed loop: every connection keeps one request in flight until
  /// `seconds` pass. Returns completions within the window.
  bool ClosedLoop(double seconds, std::int64_t* completions) {
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    closed_window_end_ = end;
    for (int connection = 0; connection < kConnections; ++connection) {
      if (!Send(NextRequest(Clock::now(), "c"),
                connection)) {
        return false;
      }
    }
    refill_ = true;
    closed_completions_ = 0;
    while (Clock::now() < end) {
      if (!Receive(end)) return false;
    }
    refill_ = false;
    *completions = closed_completions_;
    return Drain(Clock::now() + std::chrono::seconds(30));
  }

  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<Request>& requests() const { return requests_; }
  void ClearSamples() { samples_.clear(); }
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }
  int outstanding_at_end() const { return outstanding_at_end_; }
  /// Most requests in flight at once since the open loop began.
  int outstanding_max() const { return outstanding_max_; }
  std::int64_t planned_faults() const { return planned_faults_; }

 private:
  /// The next request of the seeded cycle. Each cycle shuffles the
  /// engines of every (dataset, algorithm) group and deals the groups out
  /// in a fixed rotation: algorithms alternate, and datasets either
  /// alternate request by request or, with `dataset_blocks`, follow one
  /// another in blocks. Every seed thus sees the same residency pattern
  /// and the same spacing of heavy graphs and algorithms; the seed picks
  /// which engine fills each slot, and which slots of the cycle carry the
  /// fault plan (one in `fault_every`). A fixed fault phase instead put
  /// the faults on the same slots in every cycle and split the seeds into
  /// fast and slow ones.
  std::size_t NextRequest(Clock::time_point due, const char* prefix) {
    if (order_position_ == order_.size()) {
      const std::size_t datasets = shape_.datasets.size();
      const std::size_t algorithms = shape_.algorithms.size();
      std::vector<std::vector<std::size_t>> groups(datasets * algorithms);
      for (std::size_t cell = 0; cell < mix_.size(); ++cell) {
        const auto dataset = std::find(shape_.datasets.begin(),
                                       shape_.datasets.end(),
                                       mix_[cell].dataset);
        const auto algorithm = std::find(shape_.algorithms.begin(),
                                         shape_.algorithms.end(),
                                         mix_[cell].algorithm);
        groups[static_cast<std::size_t>(dataset - shape_.datasets.begin()) *
                   algorithms +
               static_cast<std::size_t>(algorithm -
                                        shape_.algorithms.begin())]
            .push_back(cell);
      }
      std::size_t longest = 0;
      for (std::vector<std::size_t>& cells : groups) {
        for (std::size_t i = cells.size(); i > 1; --i) {
          std::swap(cells[i - 1], cells[rng_.NextBounded(i)]);
        }
        longest = std::max(longest, cells.size());
      }
      order_.clear();
      auto deal = [&](std::size_t dataset, std::size_t round) {
        for (std::size_t algorithm = 0; algorithm < algorithms; ++algorithm) {
          const std::vector<std::size_t>& cells =
              groups[dataset * algorithms + algorithm];
          if (round < cells.size()) order_.push_back(cells[round]);
        }
      };
      if (shape_.dataset_blocks) {
        for (std::size_t dataset = 0; dataset < datasets; ++dataset) {
          for (std::size_t round = 0; round < longest; ++round) {
            deal(dataset, round);
          }
        }
      } else {
        for (std::size_t round = 0; round < longest; ++round) {
          for (std::size_t dataset = 0; dataset < datasets; ++dataset) {
            deal(dataset, round);
          }
        }
      }
      faults_.assign(order_.size(), 0);
      if (shape_.fault_every > 0) {
        std::fill_n(faults_.begin(),
                    order_.size() / static_cast<std::size_t>(shape_.fault_every),
                    1);
        for (std::size_t i = faults_.size(); i > 1; --i) {
          std::swap(faults_[i - 1], faults_[rng_.NextBounded(i)]);
        }
      }
      order_position_ = 0;
    }
    const std::size_t slot = order_position_++;
    return NewRequest(order_[slot], faults_[slot] != 0, due, prefix);
  }

  std::size_t NewRequest(std::size_t cell, bool fault, Clock::time_point due,
                         const char* prefix) {
    Request request;
    request.cell = cell;
    request.fault = fault;
    request.due = due;
    request.line = RequestLine(prefix + std::to_string(requests_.size()),
                               mix_[cell], fault);
    requests_.push_back(std::move(request));
    return requests_.size() - 1;
  }

  bool Send(std::size_t index, int connection) {
    requests_[index].sent = Clock::now();
    outstanding_max_ = std::max(outstanding_max_, ++outstanding_);
    if (!client_.Send(connection, requests_[index].line)) {
      report_.Fail("send failed");
      return false;
    }
    return true;
  }

  bool Receive(Clock::time_point until) {
    const bool ok = client_.Poll(
        until, [this](int connection, std::string line, Clock::time_point at) {
          OnResponse(connection, line, at);
        });
    if (!ok) report_.Fail("daemon connection lost");
    return ok && report_.correct();
  }

  bool Drain(Clock::time_point deadline) {
    while (outstanding_ > 0) {
      if (Clock::now() > deadline) {
        report_.Fail(std::to_string(outstanding_) +
                     " requests never answered");
        report_.failed += outstanding_;
        return false;
      }
      if (!Receive(deadline)) return false;
    }
    return true;
  }

  void OnResponse(int connection, const std::string& line,
                  Clock::time_point at) {
    --outstanding_;
    auto parsed = ga::json::Parse(line);
    const std::string id = parsed.ok() ? parsed->GetString("id") : "";
    if (id.size() < 2) {
      report_.Fail("unparseable response: " + line);
      return;
    }
    const std::size_t index = std::strtoull(id.c_str() + 1, nullptr, 10);
    if (index >= requests_.size()) {
      report_.Fail("unknown response id: " + line);
      return;
    }
    const Request& request = requests_[index];
    const Cell& cell = mix_[request.cell];
    const std::string status = parsed->GetString("status");
    const bool warmup = id[0] == 'w';
    Sample sample;
    sample.request = index;
    sample.latency_ms = MsBetween(request.due, at);
    if (!warmup) ++report_.attempted;
    if (request.fault) {
      // A planned fault must fail exactly as planned.
      if (status == "crashed") {
        ++planned_faults_;
      } else {
        if (!warmup) ++report_.failed;
        report_.Fail(id + " " + cell.Name() + ": planned crash came back " +
                     status);
      }
    } else {
      const Expected& want = expected_.at(cell.Name());
      const bool ok =
          status == "completed" &&
          parsed->GetString("output_fnv") == want.fnv &&
          parsed->GetNumber("tproc_seconds") == want.tproc &&
          parsed->GetNumber("makespan_seconds") == want.makespan &&
          static_cast<int>(parsed->GetNumber("supersteps")) == want.supersteps;
      if (ok) {
        sample.completed = true;
        sample.queue_wait_ms = parsed->GetNumber("queue_wait_ms");
        sample.load_ms = parsed->GetNumber("load_ms");
        sample.exec_ms = parsed->GetNumber("exec_ms");
      } else {
        if (!warmup) ++report_.failed;
        sample.latency_ms = std::numeric_limits<double>::infinity();
        report_.Fail(id + " " + cell.Name() + ": " + line);
      }
      samples_.push_back(sample);
    }
    if (refill_ && at < closed_window_end_) {
      if (sample.completed) ++closed_completions_;
      Send(NextRequest(Clock::now(), "c"), connection);
    }
  }

  const Shape& shape_;
  const std::vector<Cell>& mix_;
  const std::map<std::string, Expected>& expected_;
  ga::SplitMix64 rng_;
  Client& client_;
  Report& report_;
  std::vector<std::size_t> order_;
  std::size_t order_position_ = 0;
  std::vector<char> faults_;  // per slot of the current cycle
  std::vector<Request> requests_;
  std::vector<Sample> samples_;
  std::vector<double> lateness_ms_;
  int outstanding_ = 0;
  int outstanding_at_end_ = 0;
  int outstanding_max_ = 0;
  std::int64_t planned_faults_ = 0;
  bool refill_ = false;
  Clock::time_point closed_window_end_;
  std::int64_t closed_completions_ = 0;
};

/// The daemon's `stats` object.
ga::Result<ga::json::Value> FetchStats() {
  const int fd = Daemon::Connect();
  if (fd < 0) return ga::Status::IoError("cannot connect for stats");
  const std::string request = "{\"op\":\"stats\"}\n";
  std::string line;
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(request.size())) {
    char chunk[4096];
    ssize_t n;
    while (line.find('\n') == std::string::npos &&
           (n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      line.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  GA_ASSIGN_OR_RETURN(ga::json::Value response,
                      ga::json::Parse(line.substr(0, line.find('\n'))));
  const ga::json::Value* stats = response.Find("stats");
  if (stats == nullptr) return ga::Status::IoError("no stats in " + line);
  return *stats;
}

std::vector<double> Field(const std::vector<Sample>& samples,
                          double Sample::*field) {
  std::vector<double> values;
  for (const Sample& sample : samples) values.push_back(sample.*field);
  return values;
}

}  // namespace

int RunServe(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  const Shape shape = ShapeFor(options.workload);
  RecordEnvironment(report, options, shape.divisor);
  report.Info("workers", shape.workers);
  report.Info("host_jobs", shape.jobs);
  report.Info("connections", kConnections);
  report.Info("rate_rps", shape.rate_rps);

  const std::string data_dir = "serve-data";
  const ga::harness::BenchmarkConfig config =
      MakeConfig(shape.divisor, data_dir, shape.jobs);
  ga::exec::ThreadPool pool(shape.jobs);
  Fixture fixture;
  SetupLayers setup_layers;
  std::vector<Cell> mix;
  std::map<std::string, Expected> expected;
  Daemon daemon;
  std::vector<double> setup_s;
  std::int64_t budget_mib = 0;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    if (!daemon.Stop()) report.Fail("daemon did not drain cleanly");
    fixture = Fixture{};
    const Clock::time_point begin = Clock::now();
    if (!BuildFixture(config, shape.datasets, shape.algorithms, &pool, tracer,
                      &setup_layers, &fixture, report) ||
        !ExpectCells(shape, fixture, config, &pool, &mix, &expected, report)) {
      return report.Print();
    }
    std::vector<std::string> args = {
        "--socket", kSocket, "--workers", std::to_string(shape.workers),
        "--jobs", std::to_string(shape.jobs), "--queue-depth", "64",
        "--data-dir", data_dir};
    if (shape.memory_budget) {
      // Between the largest snapshot and the sum of all of them, so the
      // rotation keeps evicting and reloading.
      std::int64_t largest = 0, sum = 0;
      for (const auto& [id, bytes] : fixture.snapshot_bytes) {
        largest = std::max(largest, bytes);
        sum += bytes;
      }
      budget_mib = (largest + largest / 8 + (sum - largest) / 2) >> 20;
      args.insert(args.end(), {"--memory-budget", std::to_string(budget_mib)});
    }
    if (!daemon.Start(options.cli, args, shape.divisor) ||
        !daemon.WaitReady(30.0)) {
      report.Fail("daemon did not start");
      return report.Print();
    }
    setup_s.push_back(MsSince(begin) / 1e3);
  }
  for (const std::string& id : shape.datasets) {
    RecordDataset(report, id, **fixture.registry->Load(id),
                  fixture.snapshot_bytes[id]);
  }
  report.Info("memory_budget_mib", static_cast<double>(budget_mib));
  report.Info("mix_cells", static_cast<double>(mix.size()));
  Digest digest;
  for (const auto& [name, want] : expected) {
    digest.Add(name);
    digest.Add(want.fnv);
    digest.Add(want.tproc);
    digest.Add(want.makespan);
    digest.Add(static_cast<double>(want.supersteps));
  }
  report.InfoText("digest", digest.Hex());

  Client client;
  if (!client.Connect(kConnections)) {
    report.Fail("cannot connect to the daemon");
    return report.Print();
  }
  Session session(shape, mix, expected, options.seed, client, report);
  if (!session.WarmUp()) return report.Print();

  if (!options.trace) {
    std::int64_t completions = 0;
    const double open_s = options.seconds * shape.open_share;
    const double closed_s = options.seconds - open_s;
    if (!session.OpenLoop(open_s)) return report.Print();
    const std::vector<double> latency = Field(session.samples(),
                                              &Sample::latency_ms);
    const int open_outstanding_max = session.outstanding_max();
    session.ClearSamples();
    if (!session.ClosedLoop(closed_s, &completions)) return report.Print();
    auto stats = FetchStats();
    const double peak_rss = PeakRssMb(daemon.pid());
    if (!daemon.Stop()) report.Fail("daemon did not drain cleanly");

    const double lateness_p99 = Percentile(session.lateness_ms(), 99.0);
    if (lateness_p99 > kMaxLatenessMs) {
      report.Fail("open-loop generator ran late: p99 " +
                  std::to_string(lateness_p99) + " ms");
    }
    const double beyond_tail = std::floor(static_cast<double>(latency.size()) *
                                          (100.0 - kTailPercentile) /
                                          100.0);
    report.Info("samples_beyond_tail", beyond_tail);
    if (beyond_tail < kMinBeyondTail) {
      report.Fail("open loop too short: " + std::to_string(beyond_tail) +
                  " samples above the tail percentile");
    }
    if (session.outstanding_at_end() > kMaxOutstandingAtEnd) {
      report.Fail("open-loop backlog grew: " +
                  std::to_string(session.outstanding_at_end()) +
                  " outstanding when the schedule ended");
    }
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("latency_ms", Percentile(latency, 50.0), "ms");
    report.Metric("tail_ms", Percentile(latency, kTailPercentile), "ms");
    report.Metric("throughput_per_s", completions / closed_s, "1/s");
    report.Metric("peak_rss_mb", peak_rss, "MB");
    report.Info("req_p50_ms", Percentile(latency, 50.0));
    report.Info("req_p99_ms", Percentile(latency, 99.0));
    report.Info("req_capacity_rps", completions / closed_s);
    report.Info("tail_percentile", kTailPercentile);
    report.Info("open_loop_samples", static_cast<double>(latency.size()));
    report.Info("generator_lateness_p99_ms", lateness_p99);
    report.Info("outstanding_at_schedule_end", session.outstanding_at_end());
    report.Info("outstanding_max", open_outstanding_max);
    report.Info("planned_faults", static_cast<double>(session.planned_faults()));
    report.Info("fail_frac", static_cast<double>(report.failed) /
                                 std::max<double>(1.0, report.attempted));
    if (stats.ok()) {
      const double hits = stats->GetNumber("residency_hits");
      const double misses = stats->GetNumber("residency_misses");
      report.Info("serve.hit_frac", hits / std::max(1.0, hits + misses));
      report.Info("serve.evictions", stats->GetNumber("evictions"));
      report.Info("store.miss_reads", misses);
      report.Info("serve.shed_frac",
                  (stats->GetNumber("shed_arrivals") +
                   stats->GetNumber("shed_victims")) /
                      std::max(1.0, stats->GetNumber("submitted")));
    } else {
      report.Fail("stats op failed: " + stats.status().ToString());
    }
    return report.Print();
  }

  // Traced run: an untraced closed loop, then a traced one whose request
  // spans hold the daemon's stage fields plus the client-side protocol
  // and serialize costs; what remains of each round trip is the socket
  // residue.
  const double half = options.seconds / 2.0;
  std::int64_t plain_completions = 0, traced_completions = 0;
  if (!session.ClosedLoop(half, &plain_completions)) return report.Print();
  const double plain_rtt = Median(Field(session.samples(), &Sample::latency_ms));
  session.ClearSamples();

  CellLayers layers;
  ProbeCells(mix, fixture, config, &pool, tracer, &layers, report);
  ProbeStore(config, shape.datasets, tracer, &setup_layers, report);

  if (!session.ClosedLoop(half, &traced_completions)) return report.Print();
  std::vector<double> protocol_ms, excess_ms, serialize_ms, rtt_ms;
  double rtt_total = 0.0, residue_total = 0.0;
  for (const Sample& sample : session.samples()) {
    if (!sample.completed) continue;
    const Request& request = session.requests()[sample.request];
    const std::string name = mix[request.cell].Name();
    // Protocol cost: parse the request line, format an equal response.
    const Clock::time_point begin = Clock::now();
    auto parsed = ga::serve::ParseRequest(
        request.line.substr(0, request.line.size() - 1));
    ga::serve::Response response;
    response.id = parsed.ok() ? parsed->id : "";
    response.status = "completed";
    response.output_fnv = expected.at(name).fnv;
    response.queue_wait_ms = sample.queue_wait_ms;
    response.load_ms = sample.load_ms;
    response.exec_ms = sample.exec_ms;
    const std::size_t formatted = ga::serve::FormatResponse(response).size();
    const double protocol = MsSince(begin) + (formatted == 0 ? 1.0 : 0.0);
    const double serialize = layers.serialize_ms_by_cell[name];
    const double start = tracer.NowMs() - sample.latency_ms;
    const int span = tracer.Add("serve.request", name, -1, start,
                                start + sample.latency_ms);
    double at = start;
    for (const auto& [layer, ms] :
         {std::pair<const char*, double>{"serve.queue_wait",
                                         sample.queue_wait_ms},
          {"serve.load", sample.load_ms},
          {"serve.exec", sample.exec_ms},
          {"serve.serialize", serialize},
          {"serve.protocol", protocol}}) {
      tracer.Add(layer, name, span, at, at + ms);
      at += ms;
    }
    protocol_ms.push_back(protocol);
    serialize_ms.push_back(serialize);
    excess_ms.push_back(sample.exec_ms - layers.runjob_ms_by_cell[name]);
    rtt_ms.push_back(sample.latency_ms);
    rtt_total += sample.latency_ms;
    residue_total += sample.latency_ms - (at - start);
  }
  auto stats = FetchStats();
  if (!daemon.Stop()) report.Fail("daemon did not drain cleanly");
  const auto& samples = session.samples();
  report.Info("untraced.rtt_ms", plain_rtt);
  report.Info("traced.rtt_ms", Median(rtt_ms));
  report.Info("serve.queue_wait_ms_p50",
              Percentile(Field(samples, &Sample::queue_wait_ms), 50.0));
  report.Info("serve.queue_wait_ms_p99",
              Percentile(Field(samples, &Sample::queue_wait_ms), 99.0));
  report.Info("serve.load_ms_p50",
              Percentile(Field(samples, &Sample::load_ms), 50.0));
  report.Info("serve.load_ms_p99",
              Percentile(Field(samples, &Sample::load_ms), 99.0));
  report.Info("serve.exec_ms_p50",
              Percentile(Field(samples, &Sample::exec_ms), 50.0));
  report.Info("serve.exec_excess_ms", Median(excess_ms));
  report.Info("serve.serialize_ms", Median(serialize_ms));
  report.Info("serve.protocol_ms", Median(protocol_ms));
  if (stats.ok()) {
    const double hits = stats->GetNumber("residency_hits");
    const double misses = stats->GetNumber("residency_misses");
    report.Info("serve.hit_frac", hits / std::max(1.0, hits + misses));
    report.Info("serve.evictions", stats->GetNumber("evictions"));
    report.Info("store.miss_reads", misses);
  }
  EmitLayerMetrics(report, setup_layers, layers, DispatchMicros(shape.jobs),
                   rtt_total > 0 ? residue_total / rtt_total : 0.0,
                   plain_rtt > 0 ? Median(rtt_ms) / plain_rtt - 1.0 : 0.0);
  tracer.WriteJsonl("spans.jsonl");
  return report.Print();
}

}  // namespace perfbench
