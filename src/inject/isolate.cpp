#include "inject/isolate.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/failpoint.h"

#ifndef _WIN32

#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace tfsim {
namespace {

using Clock = std::chrono::steady_clock;

// Parent -> child: one 8-byte trial index per hand-off; the sentinel (or
// pipe EOF) shuts the worker down.
constexpr std::uint64_t kShutdown = ~std::uint64_t{0};

// Child -> parent: fixed header, then `error_len` message bytes. Parent and
// child are the same binary in the same address space family, so the struct
// layout is identical on both ends; memcpy in and out keeps the protocol
// alignment-safe.
struct WireFrame {
  std::uint64_t index = 0;
  std::uint64_t dur_us = 0;
  std::uint8_t outcome = 0;
  std::uint8_t mode = 0;
  std::uint8_t cat = 0;
  std::uint8_t storage = 0;
  std::uint32_t cycles = 0;
  std::uint32_t valid_instrs = 0;
  std::uint32_t inflight = 0;
  std::uint16_t quarantine = 0;  // 0 = none, else 1 + QuarantineReason
  std::uint16_t error_len = 0;
};

bool WriteFull(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    len -= static_cast<std::size_t>(w);
  }
  return true;
}

bool ReadFull(int fd, void* data, std::size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t r = ::read(fd, p, len);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    p += r;
    len -= static_cast<std::size_t>(r);
  }
  return true;
}

// Worker child: one TrialRunner, no threads (the single discipline that
// makes fork from a multi-threaded parent safe — and keeps TSan quiet).
// Reads trial indices off `rfd`, writes result frames to `wfd`, exits on
// the shutdown sentinel or pipe EOF. A crash here is the point: it takes
// down only this process, and the supervisor harvests the wreckage.
[[noreturn]] void RunWorkerChild(int rfd, int wfd,
                                 const std::shared_ptr<const GoldenRun>& golden,
                                 const std::vector<TrialSpec>& specs,
                                 const TrialExecOptions& opt) {
  // The parent owns interruption policy; a tty SIGINT reaches the whole
  // process group, and a worker dying to it would be recorded as a crash.
  std::signal(SIGINT, SIG_IGN);
  TrialRunner runner(golden, opt.policy);
  // Only the instrumentation hook: the parent's retry telemetry must not run
  // here (the child has no journal drain thread, and a journal lock held at
  // fork time would never be released).
  TrialRunner::Hooks hooks;
  hooks.before_attempt = opt.hooks.before_attempt;
  for (;;) {
    std::uint64_t idx = 0;
    if (!ReadFull(rfd, &idx, sizeof(idx)) || idx == kShutdown) ::_exit(0);
    const auto cur = static_cast<std::size_t>(idx);
    const auto t0 = Clock::now();
    TrialRunner::Result res =
        runner.Run(specs[cur], /*want_trace=*/false, &hooks, cur);
    const auto t1 = Clock::now();
    WireFrame f;
    f.index = idx;
    f.dur_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
    f.outcome = static_cast<std::uint8_t>(res.record.outcome);
    f.mode = static_cast<std::uint8_t>(res.record.mode);
    f.cat = static_cast<std::uint8_t>(res.record.cat);
    f.storage = static_cast<std::uint8_t>(res.record.storage);
    f.cycles = res.record.cycles;
    f.valid_instrs = res.record.valid_instrs;
    f.inflight = res.record.inflight;
    if (res.quarantined)
      f.quarantine = static_cast<std::uint16_t>(
          1 + static_cast<int>(res.timed_out ? QuarantineReason::kTimeout
                                             : QuarantineReason::kException));
    const std::size_t elen = std::min<std::size_t>(res.error.size(), 4096);
    f.error_len = static_cast<std::uint16_t>(elen);
    if (!WriteFull(wfd, &f, sizeof(f)) ||
        (elen && !WriteFull(wfd, res.error.data(), elen)))
      ::_exit(3);  // parent gone; nothing left to report to
  }
}

struct Worker {
  pid_t pid = -1;
  int to_fd = -1;    // parent writes trial indices
  int from_fd = -1;  // parent reads result frames
  bool alive = false;
  bool busy = false;
  bool killed = false;  // parent SIGKILLed it (hard deadline)
  std::size_t trial = 0;
  Clock::time_point started{};
  std::string buf;  // partially received frame bytes
};

const char* SignalName(int sig) {
  const char* s = strsignal(sig);
  return s ? s : "unknown signal";
}

}  // namespace

bool IsolationSupported() { return true; }

TrialExecReport RunTrialsIsolated(
    const std::shared_ptr<const GoldenRun>& golden,
    const std::vector<TrialSpec>& specs, std::size_t first,
    const TrialExecOptions& opt, const TrialCallback& on_done) {
  TrialExecReport report;
  const std::size_t total = specs.size();
  if (first >= total) return report;

  // A worker that dies mid-campaign leaves its pipe write-end open in every
  // *other* child (inherited at their forks), which would mask the EOF the
  // supervisor relies on — so children close every descriptor that is not
  // their own pair, and the supervisor re-derives the open set per spawn.
  const int jobs = std::max(
      1, std::min<int>(opt.jobs, static_cast<int>(total - first)));
  std::vector<Worker> workers(static_cast<std::size_t>(jobs));

  // Writes to a worker that died race with the supervisor noticing; EPIPE
  // must be an errno, not a process-killing signal.
  using SigHandler = void (*)(int);
  SigHandler old_pipe = std::signal(SIGPIPE, SIG_IGN);

  // Parent-side hard deadline per trial: generously above the child's own
  // watchdog so it only fires when the child is too wedged to enforce it.
  const std::int64_t hard_ms =
      opt.policy.timeout_ms > 0 ? opt.policy.timeout_ms * 2 + 250 : 0;

  int restarts_left = std::max(opt.max_restarts, 0);
  std::size_t next = first;
  std::vector<std::size_t> requeued;  // hand-offs that never reached a child
  bool& exhausted = report.exhausted;
  bool interrupted = false;

  auto spawn = [&](std::size_t slot) -> bool {
    int to[2] = {-1, -1}, from[2] = {-1, -1};
    if (::pipe(to) != 0) return false;
    if (::pipe(from) != 0) {
      ::close(to[0]);
      ::close(to[1]);
      return false;
    }
    // The failpoint registry mutex must not be mid-acquisition across the
    // fork (children evaluate trial-scoped failpoints); these hooks pin it.
    fail::detail::PrepareFork();
    const pid_t pid = ::fork();
    if (pid == 0) {
      fail::detail::ChildAfterFork();
      for (std::size_t s = 0; s < workers.size(); ++s) {
        if (workers[s].to_fd >= 0) ::close(workers[s].to_fd);
        if (workers[s].from_fd >= 0) ::close(workers[s].from_fd);
      }
      ::close(to[1]);
      ::close(from[0]);
      RunWorkerChild(to[0], from[1], golden, specs, opt);
    }
    fail::detail::ParentAfterFork();
    ::close(to[0]);
    ::close(from[1]);
    if (pid < 0) {
      ::close(to[1]);
      ::close(from[0]);
      return false;
    }
    Worker& w = workers[slot];
    w.pid = pid;
    w.to_fd = to[1];
    w.from_fd = from[0];
    w.alive = true;
    w.busy = false;
    w.killed = false;
    w.buf.clear();
    return true;
  };

  // Reaps a dead worker: harvest the exit status, synthesize the quarantined
  // result for any trial it held, and decide whether the restart budget
  // covers a replacement.
  auto reap = [&](std::size_t slot) {
    Worker& w = workers[slot];
    ::close(w.to_fd);
    ::close(w.from_fd);
    w.to_fd = w.from_fd = -1;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.alive = false;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (w.busy) {
      // Supervisor-made stand-ins are the default record with kTrialError,
      // byte-identical to TrialRunner::Run's in-process quarantine.
      CompletedTrial t;
      t.index = w.trial;
      t.record.outcome = Outcome::kTrialError;
      t.worker = static_cast<int>(slot);
      t.dur_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                w.started)
              .count());
      if (w.killed) {
        t.quarantine = QuarantineReason::kTimeout;
        t.status = SIGKILL;
        t.error = "worker " + std::to_string(slot) + " hard-killed after " +
                  std::to_string(hard_ms) + "ms (trial unresponsive)";
      } else {
        t.quarantine = QuarantineReason::kCrash;
        if (WIFSIGNALED(status)) {
          const int sig = WTERMSIG(status);
          t.status = static_cast<std::uint64_t>(sig);
          t.error = "worker " + std::to_string(slot) + " killed by signal " +
                    std::to_string(sig) + " (" + SignalName(sig) + ")";
        } else {
          t.status = static_cast<std::uint64_t>(WEXITSTATUS(status));
          t.error = "worker " + std::to_string(slot) +
                    " exited with status " + std::to_string(WEXITSTATUS(status));
        }
      }
      if (opt.verbose)
        std::fprintf(stderr, "[isolate] trial %zu lost: %s\n", w.trial,
                     t.error.c_str());
      w.busy = false;
      on_done(std::move(t));
    } else if (!clean && opt.verbose) {
      std::fprintf(stderr, "[isolate] idle worker %zu died (status %d)\n",
                   slot, status);
    }
    const bool work_remains =
        !interrupted && !exhausted &&
        (next < total || !requeued.empty());
    // An idle worker exiting cleanly is shutdown, not a failure.
    if (clean && !w.killed && !work_remains) return;
    if (!work_remains) return;
    if (restarts_left <= 0) {
      exhausted = true;
      if (opt.verbose)
        std::fprintf(stderr,
                     "[isolate] restart budget exhausted; quarantining the "
                     "remaining trials\n");
      return;
    }
    --restarts_left;
    ++report.restarts;
    if (!spawn(slot)) exhausted = true;
  };

  // Drains complete frames out of a worker's receive buffer.
  auto drain_frames = [&](std::size_t slot) {
    Worker& w = workers[slot];
    for (;;) {
      if (w.buf.size() < sizeof(WireFrame)) return;
      WireFrame f;
      std::memcpy(&f, w.buf.data(), sizeof(f));
      if (w.buf.size() < sizeof(f) + f.error_len) return;
      CompletedTrial t;
      t.index = static_cast<std::size_t>(f.index);
      t.record.outcome = static_cast<Outcome>(f.outcome);
      t.record.mode = static_cast<FailureMode>(f.mode);
      t.record.cat = static_cast<StateCat>(f.cat);
      t.record.storage = static_cast<Storage>(f.storage);
      t.record.cycles = f.cycles;
      t.record.valid_instrs = f.valid_instrs;
      t.record.inflight = f.inflight;
      if (f.quarantine != 0)
        t.quarantine = static_cast<QuarantineReason>(f.quarantine - 1);
      t.dur_us = f.dur_us;
      t.worker = static_cast<int>(slot);
      t.error.assign(w.buf.data() + sizeof(f), f.error_len);
      w.buf.erase(0, sizeof(f) + f.error_len);
      w.busy = false;
      on_done(std::move(t));
    }
  };

  for (int s = 0; s < jobs; ++s) {
    if (!spawn(static_cast<std::size_t>(s))) {
      // Could not even field the initial crew: contain what we can with the
      // workers that did start; with none, every trial is a budget hole.
      if (s == 0) exhausted = true;
      break;
    }
  }

  for (;;) {
    if (opt.cancel && opt.cancel->cancelled()) interrupted = true;

    // Hand out work to idle workers.
    if (!exhausted && !interrupted) {
      for (std::size_t s = 0; s < workers.size(); ++s) {
        Worker& w = workers[s];
        if (!w.alive || w.busy) continue;
        std::size_t idx;
        if (!requeued.empty()) {
          idx = requeued.back();
          requeued.pop_back();
        } else if (next < total) {
          idx = next++;
        } else {
          break;
        }
        const std::uint64_t wire = idx;
        if (!WriteFull(w.to_fd, &wire, sizeof(wire))) {
          // The child died between trials; the hand-off never landed, so the
          // trial goes back in the queue and the death is handled as usual.
          requeued.push_back(idx);
          reap(s);
          continue;
        }
        w.busy = true;
        w.trial = idx;
        w.started = Clock::now();
      }
    }

    bool any_busy = false;
    for (const Worker& w : workers) any_busy |= w.alive && w.busy;
    const bool work_remains =
        !exhausted && !interrupted && (next < total || !requeued.empty());
    if (!any_busy && !work_remains) break;

    // Wait for frames (or deaths: EOF) on every live worker's pipe.
    std::vector<pollfd> fds;
    std::vector<std::size_t> slots;
    for (std::size_t s = 0; s < workers.size(); ++s) {
      if (!workers[s].alive) continue;
      fds.push_back({workers[s].from_fd, POLLIN, 0});
      slots.push_back(s);
    }
    if (fds.empty()) {
      // Workers all gone but trials owed: reap() marked exhaustion (or a
      // spawn failed); the synthesis pass below settles the books.
      if (work_remains) exhausted = true;
      if (!work_remains && !any_busy) break;
      if (exhausted) break;
      continue;
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const std::size_t s = slots[k];
      char chunk[4096];
      const ssize_t r = ::read(workers[s].from_fd, chunk, sizeof(chunk));
      if (r > 0) {
        workers[s].buf.append(chunk, static_cast<std::size_t>(r));
        drain_frames(s);
      } else if (r == 0 || (r < 0 && errno != EINTR && errno != EAGAIN)) {
        reap(s);
      }
    }

    // Hard deadline: a child too wedged to run its own watchdog (or stuck
    // before reaching a check) gets SIGKILLed; reap() then records the
    // timeout when the pipe EOF arrives.
    if (hard_ms > 0) {
      const auto now = Clock::now();
      for (Worker& w : workers) {
        if (!w.alive || !w.busy || w.killed) continue;
        const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                                now - w.started)
                                .count();
        if (waited > hard_ms) {
          w.killed = true;
          ::kill(w.pid, SIGKILL);
        }
      }
    }
  }

  // Containment exhausted: every un-run trial still gets exactly one result
  // — an explicit budget hole, clearly distinct from machine behaviour.
  if (exhausted) {
    std::vector<std::size_t> leftovers = std::move(requeued);
    for (std::size_t i = next; i < total; ++i) leftovers.push_back(i);
    for (std::size_t idx : leftovers) {
      CompletedTrial t;
      t.index = idx;
      t.record.outcome = Outcome::kTrialError;
      t.quarantine = QuarantineReason::kBudget;
      t.error = "not executed: worker restart budget exhausted";
      on_done(std::move(t));
    }
  }

  // Shutdown: closing the command pipe EOFs every child's next read.
  for (std::size_t s = 0; s < workers.size(); ++s) {
    Worker& w = workers[s];
    if (!w.alive) continue;
    const std::uint64_t bye = kShutdown;
    WriteFull(w.to_fd, &bye, sizeof(bye));  // best-effort; EOF also works
    ::close(w.to_fd);
    ::close(w.from_fd);
    w.to_fd = w.from_fd = -1;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.alive = false;
  }

  std::signal(SIGPIPE, old_pipe);
  return report;
}

}  // namespace tfsim

#else  // _WIN32

namespace tfsim {

bool IsolationSupported() { return false; }

TrialExecReport RunTrialsIsolated(const std::shared_ptr<const GoldenRun>&,
                                  const std::vector<TrialSpec>&, std::size_t,
                                  const TrialExecOptions&,
                                  const TrialCallback&) {
  throw std::runtime_error(
      "trial isolation requires fork(); unsupported on this platform");
}

}  // namespace tfsim

#endif
