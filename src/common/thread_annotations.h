/**
 * @file
 * Clang Thread Safety Analysis for the SoMa concurrency discipline.
 *
 * Two layers live here:
 *
 *  1. The SOMA_* attribute macros — thin wrappers over Clang's
 *     capability attributes (-Wthread-safety). They compile to nothing
 *     under other compilers (gcc builds the same code unchecked), so
 *     annotations cost nothing outside the clang CI job that builds
 *     with -Werror=thread-safety.
 *
 *  2. Capability-annotated synchronization wrappers — Mutex, its
 *     scoped MutexLock and CondVar — over std::mutex /
 *     std::condition_variable. libstdc++'s std::lock_guard /
 *     std::unique_lock carry no annotations, so locking through them
 *     is invisible to the analysis; locking through MutexLock is
 *     tracked. `somalint`'s raw-mutex check enforces that everything
 *     under src/ tools/ bench/ uses these wrappers (this header is the
 *     one exemption), which is what makes the annotation coverage
 *     structural rather than best-effort.
 *
 * Conventions (see DESIGN.md "Static analysis & concurrency
 * discipline"):
 *  - every field a lock protects carries SOMA_GUARDED_BY(lock);
 *  - private helpers that expect the lock held are named *Locked and
 *    carry SOMA_REQUIRES(lock);
 *  - public entry points that take the lock carry SOMA_EXCLUDES(lock)
 *    so accidental re-entry is a compile error, not a deadlock;
 *  - condition waits go through CondVar, whose WaitFor requires the
 *    mutex capability, and use explicit while-loops rather than
 *    predicate lambdas (lambda bodies are analyzed without the
 *    caller's lock set).
 */
#ifndef SOMA_COMMON_THREAD_ANNOTATIONS_H
#define SOMA_COMMON_THREAD_ANNOTATIONS_H

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define SOMA_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define SOMA_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

#define SOMA_CAPABILITY(x) SOMA_THREAD_ANNOTATION__(capability(x))
#define SOMA_SCOPED_CAPABILITY SOMA_THREAD_ANNOTATION__(scoped_lockable)
#define SOMA_GUARDED_BY(x) SOMA_THREAD_ANNOTATION__(guarded_by(x))
#define SOMA_PT_GUARDED_BY(x) SOMA_THREAD_ANNOTATION__(pt_guarded_by(x))
#define SOMA_REQUIRES(...) \
    SOMA_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define SOMA_ACQUIRE(...) \
    SOMA_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define SOMA_RELEASE(...) \
    SOMA_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define SOMA_EXCLUDES(...) \
    SOMA_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

namespace soma {

/** Capability-annotated exclusive mutex. Lock it through MutexLock (or
 *  lock()/unlock() in the rare manual case); fields it protects carry
 *  SOMA_GUARDED_BY(<this member>). */
class SOMA_CAPABILITY("mutex") Mutex {
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() SOMA_ACQUIRE() { mu_.lock(); }
    void unlock() SOMA_RELEASE() { mu_.unlock(); }

    /** The wrapped std::mutex — for CondVar only. */
    std::mutex &native() { return mu_; }

  private:
    std::mutex mu_;
};

/** Scoped exclusive lock on a Mutex; supports the mid-scope
 *  Unlock()/Lock() dance the coalescing paths need. */
class SOMA_SCOPED_CAPABILITY MutexLock {
  public:
    explicit MutexLock(Mutex &mu) SOMA_ACQUIRE(mu) : mu_(mu), owned_(true)
    {
        mu_.lock();
    }
    ~MutexLock() SOMA_RELEASE()
    {
        if (owned_) mu_.unlock();
    }
    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    void Unlock() SOMA_RELEASE()
    {
        mu_.unlock();
        owned_ = false;
    }
    void Lock() SOMA_ACQUIRE()
    {
        mu_.lock();
        owned_ = true;
    }

  private:
    friend class CondVar;
    Mutex &mu_;
    bool owned_;
};

/**
 * Condition variable bound to Mutex. Waits require the capability, so
 * the analysis proves every wait happens with the lock held; waking
 * re-holds it. Spurious wakeups are possible as usual — always wait in
 * a while-loop over the guarded condition (an explicit loop, not a
 * predicate lambda: lambda bodies are analyzed without the caller's
 * lock set and would warn on reading guarded fields).
 */
class CondVar {
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    template <typename Rep, typename Period>
    std::cv_status WaitFor(Mutex &mu,
                           const std::chrono::duration<Rep, Period> &d)
        SOMA_REQUIRES(mu)
    {
        std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
        std::cv_status status = cv_.wait_for(lk, d);
        lk.release();
        return status;
    }

    void NotifyAll() noexcept { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

}  // namespace soma

#endif  // SOMA_COMMON_THREAD_ANNOTATIONS_H
