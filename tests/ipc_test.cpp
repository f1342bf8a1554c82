// Multi-process tests for the shm grant transport (src/ipc/): a fork
// fixture runs the OWNER and the PEER as sibling child processes over a
// memfd channel created pre-fork (both processes are single-threaded at
// fork time — the transport's fork-safety rule, docs/ipc.md).
//
// Covered here, end to end through real address-space separation:
//   * attach + strictly ordered two-process handoff on one location;
//   * a server-only owner (no tasks of its own) arbitrating a peer;
//   * peer-crash: SIGKILL mid-section — the survivor must fail loudly
//     within a bounded time (default handler exits kPeerFailureExitCode,
//     an overridden handler observes the detection), and NEVER hang: the
//     whole fixture runs under an alarm() watchdog, and the gtest parent
//     reaps the crashed child immediately so the survivor's kill(pid, 0)
//     liveness probe sees ESRCH rather than a zombie.
//
// TSan note (.github/workflows/ci.yml): the children never create
// threads before fork — endpoints (and their pump threads) come up only
// inside the child — so running this under TSan needs
// TSAN_OPTIONS=die_after_fork=0 but no other concession.

#include <gtest/gtest.h>

#ifndef __linux__

TEST(IpcTransport, SkippedOnNonLinux) { GTEST_SKIP() << "shm is Linux-only"; }

#else  // __linux__

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <span>

#include "ipc/channel.h"
#include "ipc/transport.h"
#include "orwl/runtime.h"

namespace orwl::ipc {
namespace {

constexpr int kRounds = 16;
/// Exit code of the overridden failure handler — distinguishable from the
/// default kPeerFailureExitCode.
constexpr int kOverrideExitCode = 42;
/// Watchdog: no single two-process case may take anywhere near this.
constexpr unsigned kWatchdogSec = 45;

std::uint64_t& counter_of(std::span<std::byte> bytes) {
  return *reinterpret_cast<std::uint64_t*>(bytes.data());
}

RuntimeOptions shm_options() {
  RuntimeOptions opts;
  opts.transport = RuntimeOptions::Transport::Shm;
  return opts;
}

/// Fast liveness tick so crash detection fits comfortably in the
/// watchdog; everything else keeps its defaults.
EndpointOptions fast_opts(bool override_handler) {
  EndpointOptions opts;
  opts.tick_ns = 5'000'000;  // 5 ms
  if (override_handler)
    opts.on_peer_failure = [](const std::string&) {
      std::_Exit(kOverrideExitCode);
    };
  return opts;
}

struct OwnerParams {
  int rounds = kRounds;
  bool run_task = true;          ///< false: pure arbitration server
  int crash_at = -1;             ///< SIGKILL inside this iteration
  bool override_handler = false;
};

/// Owner child body; the exit code is the test's observable.
int owner_main(Channel& ch, const OwnerParams& p) {
  Runtime rt(shm_options());
  const LocationId loc = rt.add_shared_location(ch.location_bytes(0), "ctr");
  OwnerEndpoint ep(ch, rt, fast_opts(p.override_handler));
  ep.bind_location(0, loc);

  bool order_ok = true;
  HandleId h = -1;
  if (p.run_task) {
    const TaskId t = rt.add_task("owner", [&](TaskContext& ctx) {
      Handle& hh = ctx.handle(0);
      for (int i = 0; i < p.rounds; ++i) {
        std::uint64_t& v = counter_of(hh.acquire());
        if (i == p.crash_at) ::raise(SIGKILL);
        if (v != 2 * static_cast<std::uint64_t>(i)) order_ok = false;
        ++v;
        if (i + 1 < p.rounds)
          hh.release_and_renew();
        else
          hh.release();
      }
    });
    h = rt.add_handle(t, loc, AccessMode::Write, /*prime=*/false);
    rt.handle(h).request();  // canonical: owner primes before OwnerReady
  }
  ep.start();
  if (!ep.wait_peer_attached()) return 3;
  if (p.run_task) rt.run();
  if (!ep.wait_peer_done()) return 4;
  ep.stop();
  if (!order_ok) return 5;
  return 0;
}

struct PeerParams {
  int rounds = kRounds;
  /// Expected parity of the observed counter: with an owner task the peer
  /// goes second (sees odd values); against a server-only owner it is the
  /// only writer (sees its own trail).
  bool owner_writes = true;
  int crash_at = -1;
  bool override_handler = false;
};

int peer_main(int fd, const PeerParams& p) {
  Channel ch = Channel::attach_fd(fd);
  Runtime rt(shm_options());
  PeerEndpoint ep(ch, rt, fast_opts(p.override_handler));
  const LocationId loc = ep.add_location(0);

  bool order_ok = true;
  const TaskId t = rt.add_task("peer", [&](TaskContext& ctx) {
    Handle& hh = ctx.handle(0);
    for (int i = 0; i < p.rounds; ++i) {
      std::uint64_t& v = counter_of(hh.acquire());
      if (i == p.crash_at) ::raise(SIGKILL);
      const std::uint64_t want =
          p.owner_writes ? 2 * static_cast<std::uint64_t>(i) + 1
                         : static_cast<std::uint64_t>(i);
      if (v != want) order_ok = false;
      ++v;
      if (i + 1 < p.rounds)
        hh.release_and_renew();
      else
        hh.release();
    }
  });
  const HandleId h = rt.add_handle(t, loc, AccessMode::Write,
                                   /*prime=*/false);
  ep.start();
  rt.handle(h).request();
  ep.announce_primed();
  rt.run();
  ep.stop();
  return order_ok ? 0 : 5;
}

/// Fork fixture. The channel is created per-case before any fork; the
/// owner child reuses the parent's mapping, the peer child re-attaches
/// through the inherited memfd.
class IpcTransport : public ::testing::Test {
 protected:
  void SetUp() override { ::alarm(kWatchdogSec); }
  void TearDown() override { ::alarm(0); }

  static Channel make_channel() {
    return Channel::create(
        {.shm_name = {},
         .ring_capacity = 64,
         .locations = {{.name = "ctr", .bytes = sizeof(std::uint64_t)}}});
  }

  template <typename Body>
  static pid_t fork_child(Body body) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::alarm(kWatchdogSec);  // alarms do not survive fork; re-arm
      ::_exit(body());
    }
    return pid;
  }

  /// Reap `pid` and return its exit code; -1 for abnormal termination.
  /// Reaping promptly matters: a zombie still satisfies kill(pid, 0), so
  /// the surviving sibling's liveness probe needs the crasher collected.
  static int reap(pid_t pid) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

TEST_F(IpcTransport, OrderedHandoffAcrossProcesses) {
  Channel ch = make_channel();
  const pid_t owner = fork_child([&ch] { return owner_main(ch, {}); });
  ASSERT_GT(owner, 0);
  const int fd = ch.shm_fd();
  const pid_t peer = fork_child([fd] { return peer_main(fd, {}); });
  ASSERT_GT(peer, 0);

  EXPECT_EQ(reap(owner), 0);
  EXPECT_EQ(reap(peer), 0);
  // The parent's own mapping sees both processes' writes: strict
  // alternation bumped the counter exactly 2 * kRounds times.
  EXPECT_EQ(counter_of(ch.location_bytes(0)),
            2 * static_cast<std::uint64_t>(kRounds));
}

TEST_F(IpcTransport, ServerOnlyOwnerArbitratesPeer) {
  // The owner hosts the queues but runs no task of its own — the pump
  // thread alone moves the peer through all its rounds.
  Channel ch = make_channel();
  const pid_t owner = fork_child([&ch] {
    OwnerParams p;
    p.run_task = false;
    return owner_main(ch, p);
  });
  ASSERT_GT(owner, 0);
  const int fd = ch.shm_fd();
  const pid_t peer = fork_child([fd] {
    PeerParams p;
    p.owner_writes = false;
    return peer_main(fd, p);
  });
  ASSERT_GT(peer, 0);

  EXPECT_EQ(reap(owner), 0);
  EXPECT_EQ(reap(peer), 0);
  EXPECT_EQ(counter_of(ch.location_bytes(0)),
            static_cast<std::uint64_t>(kRounds));
}

TEST_F(IpcTransport, PeerCrashMidSectionFailsOwnerLoudly) {
  // The peer SIGKILLs itself while holding the location. The owner's next
  // wait can never be satisfied; its pump must detect the dead peer
  // within its liveness tick and fail-stop with the documented exit code
  // — bounded-time loud failure, never a hang (the watchdog enforces it).
  Channel ch = make_channel();
  const pid_t owner = fork_child([&ch] { return owner_main(ch, {}); });
  ASSERT_GT(owner, 0);
  const int fd = ch.shm_fd();
  const pid_t peer = fork_child([fd] {
    PeerParams p;
    p.crash_at = kRounds / 2;
    return peer_main(fd, p);
  });
  ASSERT_GT(peer, 0);

  EXPECT_EQ(reap(peer), -1);  // SIGKILL, not an exit
  EXPECT_EQ(reap(owner), kPeerFailureExitCode);
}

TEST_F(IpcTransport, OwnerCrashMidSectionFailsPeerLoudly) {
  // Dual case: the arbiter dies holding its own section. The peer's
  // parked handle can never be granted again; its pump must notice.
  Channel ch = make_channel();
  const pid_t owner = fork_child([&ch] {
    OwnerParams p;
    p.crash_at = kRounds / 2;
    return owner_main(ch, p);
  });
  ASSERT_GT(owner, 0);
  const int fd = ch.shm_fd();
  const pid_t peer = fork_child([fd] { return peer_main(fd, {}); });
  ASSERT_GT(peer, 0);

  EXPECT_EQ(reap(owner), -1);
  EXPECT_EQ(reap(peer), kPeerFailureExitCode);
}

TEST_F(IpcTransport, OverriddenFailureHandlerObservesDetection) {
  // Tests can watch the detection instead of dying with the default
  // handler: the surviving owner exits with the override's code.
  Channel ch = make_channel();
  const pid_t owner = fork_child([&ch] {
    OwnerParams p;
    p.override_handler = true;
    return owner_main(ch, p);
  });
  ASSERT_GT(owner, 0);
  const int fd = ch.shm_fd();
  const pid_t peer = fork_child([fd] {
    PeerParams p;
    p.crash_at = kRounds / 2;
    return peer_main(fd, p);
  });
  ASSERT_GT(peer, 0);

  EXPECT_EQ(reap(peer), -1);
  EXPECT_EQ(reap(owner), kOverrideExitCode);
}

}  // namespace
}  // namespace orwl::ipc

#endif  // __linux__
