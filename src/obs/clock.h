/**
 * @file
 * The repo's single monotonic-clock call site.
 *
 * Every duration, deadline and timestamp in scheduling code is
 * steady_clock arithmetic (DESIGN.md "Static analysis & concurrency
 * discipline"); this header is where the one `now()` call lives.
 * somalint's steady-now check flags `steady_clock::now()` (and aliases
 * of it) anywhere outside src/obs/, so timing code either takes a
 * time_point from its caller or reaches it through MonotonicNow() —
 * which keeps the wallclock discipline auditable from one file.
 */
#ifndef SOMA_OBS_CLOCK_H
#define SOMA_OBS_CLOCK_H

#include <chrono>
#include <cstdint>

namespace soma {
namespace obs {

/** The process-wide scheduling clock. Monotonic by construction; a
 *  system-time jump never moves it. */
using MonotonicClock = std::chrono::steady_clock;
using MonotonicTime = MonotonicClock::time_point;

/** The current monotonic instant — the one sanctioned now() call. */
inline MonotonicTime
MonotonicNow()
{
    return MonotonicClock::now();
}

/** Seconds elapsed since @p t0 (fractional). */
inline double
SecondsSince(MonotonicTime t0)
{
    return std::chrono::duration<double>(MonotonicNow() - t0).count();
}

/** Nanoseconds between two instants (0 for t1 <= t0 in practice; the
 *  clock is monotonic). */
inline std::int64_t
NanosBetween(MonotonicTime t0, MonotonicTime t1)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
        .count();
}

/** Nanoseconds elapsed since @p t0. */
inline std::int64_t
NanosSince(MonotonicTime t0)
{
    return NanosBetween(t0, MonotonicNow());
}

}  // namespace obs
}  // namespace soma

#endif  // SOMA_OBS_CLOCK_H
