/**
 * @file
 * Registry<Entry>: the one name -> entry table behind the model,
 * hardware, scheduler and memory-model registries. Entries keep their
 * registration order (what `somac list` prints); lookups never die:
 * an unknown name yields nullptr and an error listing the registered
 * names. Registration is not synchronized — configure a registry
 * before reading it from several threads.
 */
#ifndef SOMA_COMMON_REGISTRY_H
#define SOMA_COMMON_REGISTRY_H

#include <string>
#include <utility>
#include <vector>

namespace soma {

template <typename Entry>
class Registry {
  public:
    /** @p kind names the entries in errors ("model", "memory model");
     *  it must outlive the registry (a string literal). */
    explicit Registry(const char *kind) : kind_(kind) {}

    /** Registers @p entry under @p name. An existing name is replaced
     *  in place and keeps its position. */
    void Register(const std::string &name, Entry entry)
    {
        for (auto &kv : entries_) {
            if (kv.first == name) {
                kv.second = std::move(entry);
                return;
            }
        }
        entries_.emplace_back(name, std::move(entry));
    }

    /** The registered names, in registration order. */
    std::vector<std::string> Names() const
    {
        std::vector<std::string> names;
        names.reserve(entries_.size());
        for (const auto &kv : entries_) names.push_back(kv.first);
        return names;
    }

    /**
     * The entry registered as @p name (valid until the next Register),
     * or nullptr with @p err, when non-null, set to
     * `unknown <kind> "<name>" (registered: a, b)`.
     */
    const Entry *Find(const std::string &name, std::string *err) const
    {
        for (const auto &kv : entries_)
            if (kv.first == name) return &kv.second;
        if (err) {
            std::string joined;
            for (const auto &kv : entries_) {
                if (!joined.empty()) joined += ", ";
                joined += kv.first;
            }
            *err = std::string("unknown ") + kind_ + " \"" + name +
                   "\" (registered: " + joined + ")";
        }
        return nullptr;
    }

  private:
    const char *kind_;
    std::vector<std::pair<std::string, Entry>> entries_;
};

}  // namespace soma

#endif  // SOMA_COMMON_REGISTRY_H
