/**
 * @file
 * Small non-cryptographic hashing helpers. The service layer keys its
 * caches on Fnv1a64 over canonical request JSON; FNV-1a is stable
 * across platforms and process restarts (unlike std::hash), which the
 * on-disk result cache depends on.
 */
#ifndef SOMA_COMMON_HASH_H
#define SOMA_COMMON_HASH_H

#include <cstdint>
#include <string>

namespace soma {

/** 64-bit FNV-1a over the @p size bytes at @p data. */
inline std::uint64_t
Fnv1a64(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;  // FNV prime
    }
    return h;
}

/** 64-bit FNV-1a over @p bytes. */
inline std::uint64_t
Fnv1a64(const std::string &bytes)
{
    return Fnv1a64(bytes.data(), bytes.size());
}

/** Fixed-width lower-case hex spelling (the cache-file / CSV form). */
std::string HexU64(std::uint64_t value);

/** Inverse of HexU64; false unless @p text is exactly 16 hex digits. */
bool ParseHexU64(const std::string &text, std::uint64_t *out);

}  // namespace soma

#endif  // SOMA_COMMON_HASH_H
