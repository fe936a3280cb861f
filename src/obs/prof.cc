#include "obs/prof.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace soma {
namespace obs {

namespace {

/** Head of the intrusive site list. Push-only; sites live forever. */
std::atomic<ProfSite *> g_sites{nullptr};
std::atomic<int> g_enable_count{0};

bool
EnvEnabled()
{
    static const bool enabled = [] {
        const char *v = std::getenv("SOMA_PROF");
        return v && *v && std::strcmp(v, "0") != 0;
    }();
    return enabled;
}

}  // namespace

ProfSite::ProfSite(const char *site_name) : name(site_name)
{
    ProfSite *head = g_sites.load(std::memory_order_relaxed);
    do {
        next = head;
    } while (!g_sites.compare_exchange_weak(head, this,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
}

bool
ProfilingEnabled()
{
    return g_enable_count.load(std::memory_order_relaxed) > 0 ||
           EnvEnabled();
}

ProfEnableScope::ProfEnableScope()
{
    g_enable_count.fetch_add(1, std::memory_order_relaxed);
}

ProfEnableScope::~ProfEnableScope()
{
    g_enable_count.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<ProfEntry>
ProfSnapshot()
{
    std::vector<ProfEntry> entries;
    for (ProfSite *site = g_sites.load(std::memory_order_acquire); site;
         site = site->next) {
        ProfEntry e;
        e.name = site->name;
        e.calls = site->calls.load(std::memory_order_relaxed);
        e.nanos = site->nanos.load(std::memory_order_relaxed);
        entries.push_back(std::move(e));
    }
    // Two sites may share a name (e.g. a scope in a header expanded in
    // several TUs): fold them so consumers see one total per name.
    std::sort(entries.begin(), entries.end(),
              [](const ProfEntry &a, const ProfEntry &b) {
                  return a.name < b.name;
              });
    std::vector<ProfEntry> folded;
    for (ProfEntry &e : entries) {
        if (!folded.empty() && folded.back().name == e.name) {
            folded.back().calls += e.calls;
            folded.back().nanos += e.nanos;
        } else {
            folded.push_back(std::move(e));
        }
    }
    return folded;
}

std::uint64_t
ProfNanos(const std::vector<ProfEntry> &snapshot, const std::string &name)
{
    for (const ProfEntry &e : snapshot)
        if (e.name == name) return e.nanos;
    return 0;
}

}  // namespace obs
}  // namespace soma
