#include "resilience/signals.hh"

#include <atomic>
#include <csignal>

namespace membw {

namespace {

// Written by the handler and read from any thread: a lock-free
// atomic is both async-signal-safe and free of data races, where a
// volatile sig_atomic_t is only the former.
std::atomic<int> pendingSignal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "the shutdown flag must be usable from a signal handler");

extern "C" void
shutdownHandler(int signum)
{
    if (pendingSignal.load(std::memory_order_relaxed) != 0) {
        // Second request: restore default disposition and re-raise,
        // so a stuck drain can still be killed from the keyboard.
        std::signal(signum, SIG_DFL);
        std::raise(signum);
        return;
    }
    pendingSignal.store(signum, std::memory_order_relaxed);
}

} // namespace

void
installShutdownHandlers()
{
    std::signal(SIGINT, shutdownHandler);
    std::signal(SIGTERM, shutdownHandler);
}

int
shutdownRequested()
{
    return pendingSignal.load(std::memory_order_relaxed);
}

const char *
shutdownSignalName()
{
    switch (pendingSignal.load(std::memory_order_relaxed)) {
      case SIGINT: return "SIGINT";
      case SIGTERM: return "SIGTERM";
      default: return "";
    }
}

void
clearShutdownRequest()
{
    pendingSignal.store(0, std::memory_order_relaxed);
}

} // namespace membw
